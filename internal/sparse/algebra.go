package sparse

// Sparse matrix algebra on CSR operands: diagonals and addition.

// DiagonalCSR returns diag(d) in CSR form.
func DiagonalCSR(d []float64) *CSR {
	coords := make([]Coord, len(d))
	for i, v := range d {
		coords[i] = Coord{Row: int64(i), Col: int64(i), Val: v}
	}
	return CSRFromCoords(int64(len(d)), int64(len(d)), coords)
}

// Diagonal extracts the main diagonal of any matrix.
func Diagonal(a Matrix) []float64 {
	rows, cols := Dims(a)
	n := rows
	if cols < n {
		n = cols
	}
	// Probe with basis vectors is O(n²); for CSR take the fast path.
	if csr, ok := a.(*CSR); ok {
		d := make([]float64, n)
		for i := int64(0); i < n; i++ {
			for k := csr.rowptr[i]; k < csr.rowptr[i+1]; k++ {
				if csr.colIdx[k] == i {
					d[i] += csr.vals[k]
				}
			}
		}
		return d
	}
	x := make([]float64, cols)
	y := make([]float64, rows)
	d := make([]float64, n)
	for j := int64(0); j < n; j++ {
		x[j] = 1
		SpMV(a, y, x)
		x[j] = 0
		d[j] = y[j]
	}
	return d
}

// Add returns A + B in CSR form; shapes must match.
func Add(a, b *CSR) *CSR {
	if a.rows != b.rows || a.cols != b.cols {
		panic("sparse: Add shape mismatch")
	}
	coords := append(CoordsFromCSR(a), CoordsFromCSR(b)...)
	return CSRFromCoords(a.rows, a.cols, coords)
}
