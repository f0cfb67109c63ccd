package sparse

// Adaptive format selection (MSREP-style profile-driven tuning): a cheap
// structural profile of a matrix (or a row band of one) feeds a
// calibrated bandwidth model that predicts each rated format's SpMV
// time, and the cheapest prediction wins. The profile features are
// exactly the quantities the rated formats' sizes depend on — diagonal
// count for DIA, longest row for ELL, shape for Dense, entry count for
// CSR and COO — plus the column span the vector traffic depends on.

// Profile summarizes the sparsity structure of a matrix or row band.
type Profile struct {
	// Rows, Cols, NNZ are the band's shape and stored-entry count.
	Rows, Cols, NNZ int64
	// Diags is the number of distinct occupied diagonals (col−row).
	Diags int64
	// MaxRowLen is the longest row; ELL pads every row to it.
	MaxRowLen int64
	// MinCol and MaxCol bound the columns the band touches (valid when
	// NNZ > 0): the x traffic of a narrow band is this span, not Cols.
	MinCol, MaxCol int64
}

// ProfileRows profiles the row band [r0, r1) of a CSR matrix in one
// O(nnz) pass; the distinct diagonals are counted in a flat array
// indexed by offset — no hashing per entry.
func ProfileRows(a *CSR, r0, r1 int64) Profile {
	p := Profile{Rows: r1 - r0, Cols: a.cols}
	if p.Rows <= 0 {
		return p
	}
	// Band-local diagonals c − li span [−(Rows−1), Cols−1].
	diagSeen := make([]bool, p.Rows+a.cols)
	p.MinCol = a.cols
	for i := r0; i < r1; i++ {
		p.MaxRowLen = max(p.MaxRowLen, a.rowptr[i+1]-a.rowptr[i])
		li := i - r0 // band-local row
		for _, c := range a.colIdx[a.rowptr[i]:a.rowptr[i+1]] {
			p.MinCol, p.MaxCol = min(p.MinCol, c), max(p.MaxCol, c)
			if d := c - li + p.Rows - 1; !diagSeen[d] {
				diagSeen[d] = true
				p.Diags++
			}
		}
	}
	p.NNZ = a.rowptr[r1] - a.rowptr[r0]
	if p.NNZ == 0 {
		p.MinCol = 0
	}
	return p
}

// Scattered reports whether the profiled structure is gather-bound:
// enough entries that the regime matters, with most of them on distinct
// diagonals (a random pattern fills one diagonal per entry; stencils and
// blocks concentrate on a few).
func (p Profile) Scattered() bool {
	return p.Diags > 32 && 4*p.Diags > p.NNZ
}

// cost is the model's predicted SpMV time for the profiled structure in
// a rated format: the bytes one product streams through memory — the
// stored arrays and the dense vector traffic — over the regime's
// calibrated rate.
func (f *format) cost(p Profile) float64 {
	rate := f.rate
	if p.Scattered() && f.gather > 0 {
		rate = f.gather
	}
	// y write once; x read over the column span the band actually
	// touches — charging a narrow band for all of x would bias the
	// tuner against banding.
	xTouch := p.Cols
	if p.NNZ > 0 {
		xTouch = min(xTouch, p.MaxCol-p.MinCol+1)
	}
	return (f.bytes(p) + 8*float64(p.Rows+xTouch)) / rate
}

// selectFormatCost returns the format the calibrated model predicts
// fastest for the profiled structure, and that prediction: argmin of
// cost across the rated rows of the format table, CSR keeping ties.
func selectFormatCost(p Profile) (*format, float64) {
	best := formatNamed("CSR")
	bestCost := best.cost(p)
	for i := range formats {
		f := &formats[i]
		if f.rate == 0 || f == best {
			continue
		}
		if cost := f.cost(p); cost < bestCost {
			best, bestCost = f, cost
		}
	}
	return best, bestCost
}
