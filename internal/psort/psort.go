// Package psort is the shared-memory parallel sort used *inside* one
// PE, standing in for the MCSTL/libstdc++ parallel mode the paper uses
// ("To sort and to merge data internally we used the parallel mode of
// the STL implementation of GCC 4.3.1"), per §IV-E "Hierarchical
// Parallelism".
//
// Key-normalized codecs (elem.KeyedCodec) are sorted by a parallel
// radix engine over (key, original index) pairs with two
// interchangeable paths — a shared-histogram LSD scatter (lsd.go) and
// an in-place American-flag MSD (msd.go) that needs roughly half the
// scratch; see Path. Closure-only codecs — no production codec is one
// — fall back to a sequential stable comparison sort.
//
// Every path, for every worker count, produces the result of a stable
// sort under the codec order, bit for bit: the radix engines sort the
// pair array into the unique (key, index) order and permute the
// elements once.
package psort

import (
	"runtime"
	"slices"

	"demsort/internal/elem"
)

// DefaultWorkers returns the default in-node sorting parallelism:
// GOMAXPROCS clamped to 8 (the paper's nodes have 8 cores, and every
// simulated PE runs its own sort — an unclamped fan-out of P×cores
// goroutines oversubscribes the host without helping).
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sort sorts vs in place using up to workers goroutines, letting the
// dispatcher pick the radix path (PathAuto). See SortPath.
func Sort[T any](c elem.Codec[T], vs []T, workers int) {
	SortPath(c, vs, workers, PathAuto)
}

// SortPath sorts vs in place using up to workers goroutines and the
// requested radix path for keyed codecs (PathAuto resolves to the LSD
// scatter; callers that must respect a memory budget pick explicitly —
// see ScratchBytes). Closure-only codecs ignore path and workers and
// run slices.SortStableFunc. The result equals a stable sort under the
// codec order for every worker count and every path.
func SortPath[T any](c elem.Codec[T], vs []T, workers int, path Path) {
	n := len(vs)
	if n < 2 {
		return
	}
	kc, keyed := elem.Codec[T](c).(elem.KeyedCodec[T])
	if !keyed || n < radixMinLen {
		slices.SortStableFunc(vs, cmp[T](c))
		return
	}
	w := radixWorkers(n, workers)
	if path == PathMSD {
		radixMSD(kc, vs, w)
	} else {
		radixLSD(kc, vs, w)
	}
}

// cmp converts a codec order into a three-way comparison.
func cmp[T any](c elem.Codec[T]) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case c.Less(a, b):
			return -1
		case c.Less(b, a):
			return 1
		default:
			return 0
		}
	}
}
