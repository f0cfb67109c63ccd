package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MatrixMarket I/O: the coordinate-format subset of the NIST Matrix
// Market exchange format, which covers the sparse matrices distributed by
// the SuiteSparse collection. Supported qualifiers are real/integer ×
// general/symmetric; pattern and complex matrices are rejected with a
// clear error.

// maxMatrixMarketSize is the ceiling on the rows, columns and entries a
// Matrix Market header may declare — the one jobspec puts on generated
// stencils.
const maxMatrixMarketSize = 1<<31 - 1

// readMatrixMarketHeader parses the banner and the size line (after any
// comments), leaving sc at the first entry line.
func readMatrixMarketHeader(sc *bufio.Scanner) (rows, cols, nnz int64, symmetric bool, err error) {
	fail := func(format string, args ...any) (int64, int64, int64, bool, error) {
		return 0, 0, 0, false, fmt.Errorf("sparse: "+format, args...)
	}
	if !sc.Scan() {
		return fail("empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) != 5 || header[0] != "%%matrixmarket" {
		return fail("not a MatrixMarket header: %q", sc.Text())
	}
	if header[1] != "matrix" || header[2] != "coordinate" {
		return fail("only coordinate matrices are supported, got %s %s", header[1], header[2])
	}
	field, symmetry := header[3], header[4]
	if field != "real" && field != "integer" {
		return fail("unsupported field type %q", field)
	}
	switch symmetry {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return fail("unsupported symmetry %q", symmetry)
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return fail("bad size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return fail("invalid dimensions %d x %d", rows, cols)
	}
	if nnz < 0 {
		return fail("invalid entry count %d", nnz)
	}
	if max(rows, cols, nnz) > maxMatrixMarketSize {
		return fail("header declares %d x %d with %d entries, above the limit of %d", rows, cols, nnz, int64(maxMatrixMarketSize))
	}
	return rows, cols, nnz, symmetric, nil
}

// ReadMatrixMarket parses a Matrix Market coordinate stream into CSR.
// Symmetric inputs are expanded to full storage (off-diagonal entries
// mirrored). Nothing is allocated on the word of the header: the entry
// list grows with the entries actually present.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows, cols, nnz, symmetric, err := readMatrixMarketHeader(sc)
	if err != nil {
		return nil, err
	}

	coords := make([]Coord, 0, min(nnz, 1<<20))
	var read int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err1 := strconv.ParseInt(f[0], 10, 64)
		j, err2 := strconv.ParseInt(f[1], 10, 64)
		v, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, j = i-1, j-1 // 1-indexed on disk
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds", i+1, j+1)
		}
		coords = append(coords, Coord{Row: i, Col: j, Val: v})
		if symmetric && i != j {
			coords = append(coords, Coord{Row: j, Col: i, Val: v})
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: header promised %d entries, found %d", nnz, read)
	}
	return CSRFromCoords(rows, cols, coords), nil
}

// WriteMatrixMarket writes a matrix in general real coordinate format.
func WriteMatrixMarket(w io.Writer, a Matrix) error {
	bw := bufio.NewWriter(w)
	rows, cols := Dims(a)
	var coords []Coord
	if csr, ok := a.(*CSR); ok {
		coords = CoordsFromCSR(csr)
	} else {
		// Materialize through the dense probe; fine for the small
		// matrices this path is meant for.
		d := ToDense(a)
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < cols; j++ {
				if v := d[i*cols+j]; v != 0 {
					coords = append(coords, Coord{Row: i, Col: j, Val: v})
				}
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		rows, cols, len(coords)); err != nil {
		return err
	}
	for _, c := range coords {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", c.Row+1, c.Col+1, c.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}
