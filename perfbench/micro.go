package main

import (
	"bytes"
	"runtime"
	"slices"
	"time"

	"demsort/internal/elem"
	"demsort/internal/psort"
	"demsort/internal/sortbench"
	"demsort/internal/xmerge"
)

// microReps is how many times each in-process kernel runs; the median
// is reported.
const microReps = 5

// microKernels times psort.Sort on one run-formation chunk (runLocal
// records) and xmerge.AppendMerge over R sorted sequences of the same
// total size, at the workload's per-rank worker count, on Rec100
// records from seed. It returns ns per record for each.
func microKernels(w workload, seed uint64) (psortNs, xmergeNs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	workers := psort.DefaultWorkers()
	n := w.runLocal()
	recs := sortbench.Generate(seed^0x5eed, 0, n)
	codec := elem.Rec100Codec{}
	work := make([]elem.Rec100, n)

	var sortTimes, mergeTimes []float64
	for range microReps {
		copy(work, recs)
		start := time.Now()
		psort.Sort[elem.Rec100](codec, work, workers)
		sortTimes = append(sortTimes, float64(time.Since(start).Nanoseconds())/float64(n))
	}

	// R sorted sequences: consecutive slices of the input, each sorted.
	fanIn := int64(w.runs)
	seqs := make([][]elem.Rec100, 0, fanIn)
	for i := range fanIn {
		seq := slices.Clone(recs[i*n/fanIn : (i+1)*n/fanIn])
		slices.SortStableFunc(seq, func(a, b elem.Rec100) int { return bytes.Compare(a[:10], b[:10]) })
		seqs = append(seqs, seq)
	}
	dst := make([]elem.Rec100, 0, n)
	for range microReps {
		start := time.Now()
		dst = xmerge.AppendMerge[elem.Rec100](codec, dst[:0], seqs)
		mergeTimes = append(mergeTimes, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(sortTimes), median(mergeTimes)
}
