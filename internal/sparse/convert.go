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

// transposeCSR returns Aᵀ in CSR form, entries sorted by (column, row)
// of a and duplicates summed.
func transposeCSR(a *CSR) *CSR {
	cs := CoordsFromCSR(a)
	for i := range cs {
		cs[i].Row, cs[i].Col = cs[i].Col, cs[i].Row
	}
	return CSRFromCoords(a.cols, a.rows, cs)
}

// format is one row of the format table: everything the package knows
// about a storage format by name. Conversion, the conversion size bound
// and the tuner's cost model all read this one table.
type format struct {
	name string
	// twin, when set, makes the format a view: A is stored as the twin
	// format's encoding of Aᵀ under exchanged relations (transposed). A
	// view has no build, size or rate of its own.
	twin string
	// build encodes a in the format.
	build func(a *CSR) Matrix
	// bytes is the size of the arrays build allocates for the profiled
	// structure: values plus whatever indices the format keeps. A format
	// whose padding explodes on a structure gets a correspondingly
	// exploded size — that, not a heuristic rule, is what rules it out of
	// tuning, and what refuses its conversion. nil for BCSR, whose blocks
	// hold at most four slots per nonzero and which the tuner does not
	// model.
	bytes func(p Profile) float64
	// rate is the calibrated effective SpMV bandwidth in bytes per second
	// against bytes plus the vector traffic, measured on the kernel a
	// solve runs: MultiplyAddPart over the planner's kernel partition
	// (the row-relation preimage of 8 equal row pieces) of DRAM-bound
	// regular structures — lap2d:512x512, a nine-diagonal band of 200 000
	// rows, a dense 1536² block. The absolute numbers only matter relative
	// to one another. Zero means the tuner does not rank the format: the
	// measured rate of the column-major views and of BCSR swings
	// several-fold with the nonzero pattern (scattered writes, block
	// fill), which makes a bytes/rate model confidently pick them where
	// they lose. They remain available as explicit choices.
	rate float64
	// gather, when nonzero, replaces rate on scattered structures (most
	// entries on their own diagonal), where SpMV is bound by irregular x
	// gathers rather than streaming and every format sustains about half
	// its streaming rate (same measurement on a random 262 144² matrix
	// with six entries per row). The row-looped formats keep their edge
	// there: their range kernels carry the row's sum in a register, COO's
	// flat entry loop reads and writes y per entry.
	gather float64
}

// formats is the one statement of which storage formats exist, in
// Figure 3 order. COO is rated because conversion emits row-major-sorted
// entries. DIA's size is one value stream per diagonal; its row-blocked
// kernel keeps the y block and the x windows in cache across diagonals,
// so the vectors are charged once like every other format.
var formats = []format{
	{name: "Dense", build: func(a *CSR) Matrix { return DenseFromMatrix(a) },
		bytes: func(p Profile) float64 { return 8 * float64(p.Rows) * float64(p.Cols) },
		rate:  7.5e9},
	{name: "COO", build: func(a *CSR) Matrix { return COOFromCSR(a) },
		bytes: func(p Profile) float64 { return 24 * float64(p.NNZ) }, // val + row + col per entry
		rate:  11.0e9, gather: 5.4e9},
	{name: "CSR", build: func(a *CSR) Matrix { return a },
		bytes: func(p Profile) float64 { return 16*float64(p.NNZ) + 8*float64(p.Rows+1) },
		rate:  10.8e9, gather: 5.2e9},
	{name: "CSC", twin: "CSR"},
	{name: "ELL", build: func(a *CSR) Matrix { return ELLFromCSR(a) },
		bytes: func(p Profile) float64 { return 16 * float64(p.Rows) * float64(p.MaxRowLen) },
		rate:  11.7e9, gather: 6.0e9},
	{name: "ELL'", twin: "ELL"},
	{name: "DIA", build: func(a *CSR) Matrix { return DIAFromCSR(a) },
		bytes: func(p Profile) float64 { return 8 * float64(p.Diags) * float64(p.Cols) },
		rate:  13.6e9},
	{name: "BCSR", build: func(a *CSR) Matrix {
		br, bd := blockShape(a)
		return BCSRFromCSR(a, br, bd)
	}},
	{name: "BCSC", twin: "BCSR"},
}

// Formats lists every storage format Convert understands, in Figure 3
// order.
var Formats = func() []string {
	names := make([]string, len(formats))
	for i, f := range formats {
		names[i] = f.name
	}
	return names
}()

// formatNamed returns the table row of a canonical format name.
func formatNamed(name string) *format {
	for i := range formats {
		if formats[i].name == name {
			return &formats[i]
		}
	}
	panic("sparse: no format " + name)
}

// MaxStoredBytes bounds the arrays one named conversion may allocate,
// and the CSR a lap2d: spec may generate (jobspec): 2²⁷ stored 8-byte
// entries. Padded formats multiply a matrix's size by its shape (Dense),
// its longest row (ELL) or its diagonal count (DIA), so a small request
// can name terabytes; the out-of-memory fault that follows is fatal, not
// a panic anything could recover.
const MaxStoredBytes = 8 << 27

// checkStored refuses to encode a in format f (asked for as name) when
// the arrays would exceed MaxStoredBytes. The bound is first tried on the
// worst structure a's shape and entry count allow, which costs nothing,
// so only a conversion that could overflow pays the O(nnz) profile.
func (f *format) checkStored(name string, a *CSR) error {
	if f.bytes == nil {
		return nil
	}
	n := a.NNZ()
	worst := Profile{Rows: a.rows, Cols: a.cols, NNZ: n, Diags: min(n, a.rows+a.cols), MaxRowLen: min(n, a.cols)}
	if f.bytes(worst) <= MaxStoredBytes {
		return nil
	}
	if need := f.bytes(ProfileRows(a, 0, a.rows)); need > MaxStoredBytes {
		return fmt.Errorf("sparse: %s storage of this matrix (%d nonzeros) needs %.3g bytes, above the bound of %d (2^27 stored entries)",
			name, n, need, int64(MaxStoredBytes))
	}
	return nil
}

// Convert re-encodes a CSR matrix into the named storage format. It is
// the dispatch used by format-sweep benchmarks. Block formats use 2 × 2
// blocks, degrading per axis to width 1 when a dimension is odd, so any
// shape converts without panicking. "Auto" profiles the matrix and
// builds a row-banded composite of predicted-fastest formats. It panics
// on an error of ConvertNamed, which callers handling user input should
// use instead.
func Convert(a *CSR, format string) Matrix {
	m, err := ConvertNamed(a, format)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// ConvertNamed is Convert with user-input-grade handling: the format
// name is matched case-insensitively against Formats (plus "Auto"), an
// unrecognized name returns an error wrapping ErrUnknownFormat that
// lists every valid spelling, and a conversion whose arrays would exceed
// MaxStoredBytes returns an error naming the format and the bound before
// anything is allocated — no panic, no out-of-memory fault. A view
// format encodes Aᵀ in its twin and exchanges the relations.
func ConvertNamed(a *CSR, format string) (Matrix, error) {
	canon, ok := CanonicalFormat(format)
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s, Auto)",
			ErrUnknownFormat, format, strings.Join(Formats, ", "))
	}
	if canon == "Auto" {
		return AutoSelect(a, defaultAutoBands(a.rows)), nil
	}
	f, src := formatNamed(canon), a
	view := f.twin != ""
	if view {
		f, src = formatNamed(f.twin), transposeCSR(a)
	}
	if err := f.checkStored(canon, src); err != nil {
		return nil, err
	}
	if view {
		return transposed{m: f.build(src), name: canon}, nil
	}
	return f.build(src), nil
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

// blockShape picks the block dimensions Convert uses for BCSR (and, on
// Aᵀ, for BCSC): 2×2 when the dimensions allow, shrinking an axis to 1
// when it is odd (an n×1 or odd-dimension matrix previously panicked
// here).
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
