//go:build !race

package stripesort

import (
	"runtime"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/sortbench"
	"demsort/internal/vtime"
)

// TestStripedAllocationBound bounds the heap the striped sorter
// allocates per input byte. Each element is decoded a fixed number of
// times (run chunk and its sort scratch, merged segment, fetched
// block, batch chunk and batch merge) and every byte buffer comes from
// bufpool at its exact size, so the ratio is a small constant: about
// 7.4 here. Buffers grown by append, per-stripe decodes or copies of
// the emitted elements push it well past the bound. The race detector
// changes sync.Pool behaviour, hence the build tag.
func TestStripedAllocationBound(t *testing.T) {
	const p, runs = 2, 16
	rc := elem.Rec100Codec{}
	cfg := DefaultConfig(p, 1<<14, 16<<10)
	cfg.Model = vtime.Default()
	cfg.RealWorkers = 1
	bElem := int64(cfg.BlockBytes / rc.Size())
	runLocal := int64(float64(cfg.MemElems)*cfg.RunFraction) / bElem * bElem
	nPer := runs * runLocal
	input := make([][]elem.Rec100, p)
	for rank := range input {
		input[rank] = sortbench.Generate(11, int64(rank)*nPer, nPer)
	}
	inputBytes := float64(p * nPer * int64(rc.Size()))

	run := func() (float64, *Result[elem.Rec100]) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Sort[elem.Rec100](rc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / inputBytes, res
	}
	run() // warm the buffer pool, as a long-lived worker's steady state
	ratio, res := run()
	if res.Runs != runs {
		t.Fatalf("expected %d runs, got %d", runs, res.Runs)
	}
	t.Logf("allocated %.2f× the %.1f MB input", ratio, inputBytes/1e6)
	if ratio > 8 {
		t.Fatalf("striped sort allocated %.2f× its input, want ≤ 8", ratio)
	}
}
