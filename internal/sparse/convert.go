package sparse

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownFormat is wrapped by every error a format-name lookup
// produces, so callers can branch on it with errors.Is.
var ErrUnknownFormat = errors.New("sparse: unknown format")

// CoordsFromCSR extracts the explicit nonzero coordinates of a CSR matrix.
func CoordsFromCSR(a *CSR) []Coord {
	out := make([]Coord, 0, a.NNZ())
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			out = append(out, Coord{Row: i, Col: a.colIdx[k], Val: a.vals[k]})
		}
	}
	return out
}

// COOFromCSR converts a CSR matrix to COO, preserving row-major entry
// order.
func COOFromCSR(a *CSR) *COO {
	n := a.NNZ()
	rowIdx := make([]int64, n)
	colIdx := make([]int64, n)
	vals := make([]float64, n)
	copy(colIdx, a.colIdx)
	copy(vals, a.vals)
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			rowIdx[k] = i
		}
	}
	return NewCOO(a.rows, a.cols, rowIdx, colIdx, vals)
}

// CSCFromCSR converts a CSR matrix to CSC.
func CSCFromCSR(a *CSR) *CSC {
	return CSCFromCoords(a.rows, a.cols, CoordsFromCSR(a))
}

// Convert re-encodes a CSR matrix into the named storage format. It is
// the dispatch used by format-sweep benchmarks. Block formats use 2 × 2
// blocks, degrading per axis to width 1 when a dimension is odd, so any
// shape converts without panicking. "Auto" profiles the matrix and
// builds a row-banded composite of predicted-fastest formats. It panics
// on an unknown name; callers handling user input should use
// ConvertNamed, which returns the error instead.
func Convert(a *CSR, format string) Matrix {
	m, err := ConvertNamed(a, format)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// ConvertNamed is Convert with user-input-grade name handling: the
// format name is matched case-insensitively against Formats (plus
// "Auto"), and an unrecognized name returns an error wrapping
// ErrUnknownFormat that lists every valid spelling — no panic.
func ConvertNamed(a *CSR, format string) (Matrix, error) {
	canon, ok := CanonicalFormat(format)
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s, Auto)",
			ErrUnknownFormat, format, strings.Join(Formats, ", "))
	}
	switch canon {
	case "CSR":
		return a, nil
	case "COO":
		return COOFromCSR(a), nil
	case "CSC":
		return CSCFromCSR(a), nil
	case "ELL":
		return ELLFromCSR(a), nil
	case "ELL'":
		return ELLPrimeFromCSC(CSCFromCSR(a)), nil
	case "DIA":
		return DIAFromCSR(a), nil
	case "Dense":
		return DenseFromMatrix(a), nil
	case "BCSR":
		br, bd := blockShape(a)
		return BCSRFromCSR(a, br, bd), nil
	case "BCSC":
		br, bd := blockShape(a)
		return BCSCFromCSR(a, br, bd), nil
	}
	// CanonicalFormat admits nothing else, so this is "Auto".
	return AutoSelect(a, defaultAutoBands(a.rows)), nil
}

// CanonicalFormat resolves a case-insensitive user-supplied format name
// ("csr", "ell'", "bcsr", "auto") to its canonical spelling. The second
// return is false when no format matches.
func CanonicalFormat(name string) (string, bool) {
	for _, f := range Formats {
		if strings.EqualFold(name, f) {
			return f, true
		}
	}
	if strings.EqualFold(name, "Auto") {
		return "Auto", true
	}
	return "", false
}

// blockShape picks the block dimensions Convert uses for BCSR/BCSC: 2×2
// when the dimensions allow, shrinking an axis to 1 when it is odd (an
// n×1 or odd-dimension matrix previously panicked here).
func blockShape(a *CSR) (br, bd int64) {
	br, bd = 2, 2
	if a.rows%2 != 0 {
		br = 1
	}
	if a.cols%2 != 0 {
		bd = 1
	}
	return br, bd
}

// defaultAutoBands is the band count Convert's "Auto" case uses when no
// planner partition supplies one: up to 4 bands, never exceeding the row
// count.
func defaultAutoBands(rows int64) int {
	n := int64(4)
	if rows < n {
		n = rows
	}
	if n < 1 {
		n = 1
	}
	return int(n)
}

// Formats lists every storage format Convert understands, in Figure 3
// order.
var Formats = []string{"Dense", "COO", "CSR", "CSC", "ELL", "ELL'", "DIA", "BCSR", "BCSC"}

// CSRFromMatrix re-encodes any Matrix back to CSR by densifying it and
// dropping explicit zeros. It materializes the full rows×cols dense
// form, so it is meant for conformance tests and small matrices, not as
// a production conversion path. Zero-padding introduced by a format
// (ELL fill, block fill in BCSR/BCSC) is discarded, so a round trip
// through any format yields the same nonzero structure the format
// actually represents.
func CSRFromMatrix(m Matrix) *CSR {
	rows, cols := Dims(m)
	d := ToDense(m)
	var coords []Coord
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			if v := d[i*cols+j]; v != 0 {
				coords = append(coords, Coord{Row: i, Col: j, Val: v})
			}
		}
	}
	return CSRFromCoords(rows, cols, coords)
}
