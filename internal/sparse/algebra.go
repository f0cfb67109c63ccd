package sparse

// Sparse matrix algebra on CSR operands: diagonals, block-diagonal
// replication and addition.

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

// BlockDiag returns the k-fold block-diagonal matrix diag(a, …, a) in
// CSR form. Index and value arrays are tiled with per-block offsets, so
// the result owns k× the input's storage — callers batching many systems
// over one operator should bound k·nnz before concatenating.
func BlockDiag(a *CSR, k int) *CSR {
	if k < 1 {
		panic("sparse: BlockDiag needs k >= 1")
	}
	nnz := int64(len(a.vals))
	rowptr := make([]int64, int64(k)*a.rows+1)
	colIdx := make([]int64, int64(k)*nnz)
	vals := make([]float64, int64(k)*nnz)
	for b := int64(0); b < int64(k); b++ {
		ro, co, ko := b*a.rows, b*a.cols, b*nnz
		for i := int64(0); i < a.rows; i++ {
			rowptr[ro+i] = ko + a.rowptr[i]
		}
		for j, c := range a.colIdx {
			colIdx[ko+int64(j)] = co + c
		}
		copy(vals[ko:ko+nnz], a.vals)
	}
	rowptr[int64(k)*a.rows] = int64(k) * nnz
	return NewCSR(int64(k)*a.rows, int64(k)*a.cols, rowptr, colIdx, vals)
}

// Add returns A + B in CSR form; shapes must match.
func Add(a, b *CSR) *CSR {
	if a.rows != b.rows || a.cols != b.cols {
		panic("sparse: Add shape mismatch")
	}
	coords := append(CoordsFromCSR(a), CoordsFromCSR(b)...)
	return CSRFromCoords(a.rows, a.cols, coords)
}
