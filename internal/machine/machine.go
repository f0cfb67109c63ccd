// Package machine models the hardware that the paper's experiments ran on.
//
// The reproduction has no Lassen supercomputer, no V100 GPUs, and no
// InfiniBand fabric, so per the substitution rule every experiment runs
// against a parametric machine model: a cluster of nodes, each with a
// fixed number of accelerators, connected by a network with finite
// bandwidth and latency. Kernel costs use a roofline (bytes / bandwidth)
// model, which is accurate to first order for Krylov iterations on GPUs —
// they are memory-bandwidth bound — and reproduces the size-scaling shapes
// of Figures 8-10.
package machine

// Machine describes a cluster. All bandwidths are bytes/second and all
// times are seconds.
type Machine struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// GPUsPerNode is the number of accelerators per node.
	GPUsPerNode int

	// MemBandwidth is the effective accelerator memory bandwidth
	// (bytes/s) that streaming kernels achieve.
	MemBandwidth float64
	// MemCapacity is the accelerator memory capacity in bytes.
	MemCapacity float64

	// IntraBandwidth is the accelerator-to-accelerator bandwidth within
	// one node (NVLink on Lassen).
	IntraBandwidth float64
	// IntraLatency is the latency of an intra-node transfer.
	IntraLatency float64

	// NetBandwidth is the per-node injection bandwidth into the
	// interconnect.
	NetBandwidth float64
	// NetLatency is the end-to-end latency of an inter-node message.
	NetLatency float64

	// KernelLaunch is the fixed cost of starting one compute kernel on an
	// accelerator (CUDA launch on the real machine).
	KernelLaunch float64
}

// Lassen returns a model of the Lassen supercomputer configuration used in
// the paper (Section 6.1): 4 NVIDIA V100 GPUs per node (16 GB HBM2 at
// ~900 GB/s peak, ~780 GB/s effective for streaming kernels), NVLink
// between GPUs, and InfiniBand EDR between nodes.
func Lassen(nodes int) Machine {
	return Machine{
		Nodes:          nodes,
		GPUsPerNode:    4,
		MemBandwidth:   780e9,
		MemCapacity:    16e9,
		IntraBandwidth: 60e9,
		IntraLatency:   2e-6,
		NetBandwidth:   21e9,
		NetLatency:     1.8e-6,
		KernelLaunch:   4e-6,
	}
}

// LassenCPU returns a CPU-only model of Lassen used by the Section 6.3
// load-balancing experiment, which runs on the 40 POWER9 cores per node:
// one rank per node, node-level STREAM bandwidth, negligible kernel
// launch cost.
func LassenCPU(nodes int) Machine {
	return Machine{
		Nodes:          nodes,
		GPUsPerNode:    1,
		MemBandwidth:   135e9,
		MemCapacity:    256e9,
		IntraBandwidth: 60e9,
		IntraLatency:   1e-6,
		NetBandwidth:   21e9,
		NetLatency:     1.8e-6,
		KernelLaunch:   3e-7,
	}
}

// NumProcs returns the total accelerator count.
func (m Machine) NumProcs() int { return m.Nodes * m.GPUsPerNode }

// NodeOf returns the node that hosts processor p.
func (m Machine) NodeOf(p int) int { return p / m.GPUsPerNode }

// TransferTime returns the time to move n bytes from processor src to
// processor dst, excluding any queueing for the link (which the
// discrete-event simulator models separately).
func (m Machine) TransferTime(src, dst int, n int64) float64 {
	if src == dst || n == 0 {
		return 0
	}
	if m.NodeOf(src) == m.NodeOf(dst) {
		return m.IntraLatency + float64(n)/m.IntraBandwidth
	}
	return m.NetLatency + float64(n)/m.NetBandwidth
}

// AllReduceTime returns the time for an allreduce of one scalar across all
// nodes (the dot-product synchronization cost): a binary-tree reduce and
// broadcast.
func (m Machine) AllReduceTime() float64 {
	if m.Nodes <= 1 {
		return m.IntraLatency
	}
	hops := 0
	for n := 1; n < m.Nodes; n *= 2 {
		hops++
	}
	return 2 * float64(hops) * m.NetLatency
}

// Bytes-per-element constants for the roofline cost model. Indices are
// stored as 64-bit integers and values as float64, matching the paper's
// double-precision experiments.
const (
	valBytes = 8
	idxBytes = 8
)

// SpMVCost returns the accelerator time for a CSR-style multiply-add over
// nnz stored entries producing rows outputs: stream the values and column
// indices, gather x, and update y. Gathered x reads are counted once per
// entry (worst case, no cache reuse) scaled by a locality factor typical
// of stencil matrices.
func (m Machine) SpMVCost(nnz, rows int64) float64 {
	const gatherReuse = 0.35                    // fraction of x gathers that miss cache for banded matrices
	bytes := float64(nnz)*(valBytes+idxBytes) + // A values + column indices
		float64(nnz)*valBytes*gatherReuse + // x gathers
		float64(rows)*(idxBytes+2*valBytes) // rowptr + y read-modify-write
	return bytes / m.MemBandwidth
}

// Blas1Cost returns the accelerator time for a streaming vector kernel
// touching the given total number of float64 elements (reads plus writes).
func (m Machine) Blas1Cost(elems int64) float64 {
	return float64(elems) * valBytes / m.MemBandwidth
}

// AxpyCost returns the time for y ← y + αx over n elements (2 reads, 1 write).
func (m Machine) AxpyCost(n int64) float64 { return m.Blas1Cost(3 * n) }

// DotCost returns the local time for a dot product over n elements (2 reads).
func (m Machine) DotCost(n int64) float64 { return m.Blas1Cost(2 * n) }

// CopyCost returns the time for dst ← src over n elements (1 read, 1 write).
func (m Machine) CopyCost(n int64) float64 { return m.Blas1Cost(2 * n) }

// ScalCost returns the time for x ← αx over n elements (1 read, 1 write).
func (m Machine) ScalCost(n int64) float64 { return m.Blas1Cost(2 * n) }
