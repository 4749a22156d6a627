package stats

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket 0 holds the value 0,
// bucket i (i ≥ 1) holds values v with bits.Len64(v) == i, i.e. the range
// [2^(i-1), 2^i).
const histBuckets = 65

// Hist is a lock-free log2-bucketed histogram. Observations are a handful
// of atomic adds, so recording from concurrently running cores is safe and
// cheap; quantiles are approximate (bucket upper bound).
type Hist struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Safe on nil (disabled).
func (h *Hist) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snap copies the histogram into an immutable HistSnap. Safe on nil
// (returns a zero snapshot).
func (h *Hist) Snap() HistSnap {
	if h == nil {
		return HistSnap{}
	}
	return h.snapshot()
}

// snapshot copies the histogram into an immutable HistSnap.
func (h *Hist) snapshot() HistSnap {
	s := HistSnap{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Max:     h.max.Load(),
		Buckets: make([]uint64, histBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnap is an immutable histogram snapshot. Buckets[i] counts values in
// [2^(i-1), 2^i); Buckets[0] counts exact zeros. Max cannot be subtracted,
// so Delta carries the later snapshot's.
type HistSnap struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max" delta:"last"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the average observation, or 0 with no observations.
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the upper
// edge of the log2 bucket where the q-th observation falls.
func (h HistSnap) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			hi := uint64(1) << uint(i)
			if hi-1 > h.Max && h.Max != 0 {
				return h.Max
			}
			return hi - 1
		}
	}
	return h.Max
}
