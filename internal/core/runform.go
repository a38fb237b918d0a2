package core

import (
	"fmt"
	"math/rand/v2"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/psort"
	"demsort/internal/xmerge"
)

// localRun is this PE's piece of one global run after phase 1: the
// elements of global run positions [SegStart, SegStart+SegLen) sorted
// on local disk, plus the in-memory sample (every K-th run position).
type localRun[T any] struct {
	file     File
	segStart int64
	segLen   int64
	runLen   int64
	sample   []T // elements at global run positions ≡ 0 (mod K)
}

// runFormation executes phase 1 (§IV, first phase): R = N/M global
// runs, each assembled from (randomly chosen) local blocks on every
// PE, sorted across the machine with the distributed internal sort
// (§IV-B), written back to local disks, and sampled. I/O is overlapped
// with sorting and communication: while run i is processed, run i+1's
// blocks are already being fetched and run i−1's output is still
// draining (§IV-E "Overlapping").
func runFormation[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, d derived, input File) ([]localRun[T], error) {
	n.SetPhase(PhaseRunForm)

	// Work on whole blocks: the input file is block-aligned by
	// construction (LoadInput).
	exts := input.Extents
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+0xD1CE))
		rng.Shuffle(len(exts), func(i, j int) { exts[i], exts[j] = exts[j], exts[i] })
	}
	bpr := d.blocksPerRun
	myRuns := (len(exts) + bpr - 1) / bpr
	runs := int(n.AllReduceInt64(int64(myRuns), "max"))
	if runs == 0 {
		runs = 1 // degenerate empty input still runs the protocol once
	}

	singleRun := runs == 1 && cfg.SingleRunOpt

	// Asynchronous block fetches for one run ahead.
	type pending struct {
		ext    Extent
		raw    []byte
		handle blockio.Handle
	}
	fetchRun := func(r int) []pending {
		lo := r * bpr
		if lo >= len(exts) {
			return nil
		}
		hi := lo + bpr
		if hi > len(exts) {
			hi = len(exts)
		}
		ps := make([]pending, 0, hi-lo)
		for _, e := range exts[lo:hi] {
			raw := bufpool.Get(e.Len * c.Size())
			h := n.Vol.ReadAsync(e.ID, raw)
			if !cfg.Overlap {
				n.Vol.Wait(h)
			}
			ps = append(ps, pending{ext: e, raw: raw, handle: h})
		}
		return ps
	}

	out := make([]localRun[T], 0, runs)
	cur := fetchRun(0)
	for r := 0; r < runs; r++ {
		next := fetchRun(r + 1) // overlap: prefetch while we sort

		// Collect run r's local chunk.
		var chunkLen int
		for _, p := range cur {
			chunkLen += p.ext.Len
		}
		n.Mem.MustAcquire(int64(chunkLen))
		chunk := make([]T, 0, chunkLen)
		if singleRun {
			// §IV-E: "Immediately after a block is read from disk, it
			// is sorted, while the disk is busy with subsequent
			// blocks"; the chunk is then merged, not sorted.
			blocks := make([][]T, 0, len(cur))
			for _, p := range cur {
				n.Vol.Wait(p.handle)
				blk := elem.DecodeSlice(c, p.raw, p.ext.Len)
				bufpool.Put(p.raw)
				SortChunkBudgeted(c, n, cfg.RadixPath, cfg.RealWorkers, blk)
				n.AddCPU(cfg.Model.SortCPU(int64(len(blk))) + cfg.Model.ScanCPU(int64(len(blk))))
				blocks = append(blocks, blk)
				n.Vol.Free(p.ext.ID)
			}
			chunk = xmerge.AppendMerge(c, chunk, blocks)
			n.AddCPU(cfg.Model.MergeCPU(int64(len(chunk)), len(blocks)))
		} else {
			for _, p := range cur {
				n.Vol.Wait(p.handle)
				chunk = elem.AppendDecode(c, chunk, p.raw, p.ext.Len)
				bufpool.Put(p.raw)
				n.Vol.Free(p.ext.ID)
			}
			n.AddCPU(cfg.Model.ScanCPU(int64(len(chunk))))
			SortChunkBudgeted(c, n, cfg.RadixPath, cfg.RealWorkers, chunk)
			n.AddCPU(cfg.Model.SortCPU(int64(len(chunk))))
		}
		cur = next

		// Distributed sort of the run: exact splits, all-to-all, merge.
		runLen := n.AllReduceInt64(int64(len(chunk)), "sum")
		bounds := rankBounds(runLen, n.P)
		cuts := dselect.Cuts(c, n, chunk, bounds[1:n.P])

		send := make([][]byte, n.P)
		for q := 0; q < n.P; q++ {
			lo, hi := cutAt(cuts, q, int64(len(chunk)), n.P)
			sb := bufpool.Get(int(hi-lo) * c.Size())
			elem.EncodeInto(c, sb, chunk[lo:hi])
			send[q] = sb
		}
		n.Mem.MustAcquire(int64(chunkLen)) // encoded send copies
		n.AddCPU(cfg.Model.ScanCPU(int64(len(chunk))))
		chunk = nil
		n.Mem.Release(int64(chunkLen)) // decoded chunk dropped

		recv := n.AllToAllv(send)
		n.Mem.Release(int64(chunkLen)) // send copies handed off to receivers
		segLen := bounds[n.Rank+1] - bounds[n.Rank]
		n.Mem.MustAcquire(segLen)     // received encodings
		n.Mem.MustAcquire(2 * segLen) // decoded pieces + merged output
		pieces := make([][]T, n.P)
		var got int64
		for q := 0; q < n.P; q++ {
			cnt := len(recv[q]) / c.Size()
			pieces[q] = elem.DecodeSlice(c, recv[q], cnt)
			got += int64(cnt)
		}
		cluster.RecycleRecv(recv)
		n.Mem.Release(segLen) // received encodings recycled
		if got != segLen {
			return nil, fmt.Errorf("core: run %d: PE %d received %d elements, expected segment of %d", r, n.Rank, got, segLen)
		}
		merged := xmerge.Merge(c, pieces)
		n.AddCPU(cfg.Model.MergeCPU(segLen, n.P) + cfg.Model.ScanCPU(segLen))

		// Sample every K-th global run position (§IV-A) and persist
		// the segment to local disk.
		lr := localRun[T]{segStart: bounds[n.Rank], segLen: segLen, runLen: runLen}
		for j := firstMultiple(lr.segStart, d.sampleK) - lr.segStart; j < segLen; j += d.sampleK {
			lr.sample = append(lr.sample, merged[j])
		}
		// Held until the splitters are known; released by Sort after
		// multiwaySelection (releaseSamples).
		n.Mem.MustAcquire(int64(len(lr.sample)))

		w := newWriter(c, n.Vol)
		w.addSlice(merged)
		lr.file = w.finish()
		if !cfg.Overlap {
			n.Vol.Drain()
		}
		n.Mem.Release(2 * segLen)
		out = append(out, lr)
	}
	n.Vol.Drain()
	n.Barrier()
	return out, nil
}

// SortChunkBudgeted runs one of run formation's in-node sorts (with
// the given radix path and worker count) and charges the radix scratch
// against n's memory budget — historically a blind spot: the keyIdx
// pair buffers and the LSD gather buffer were invisible to the
// tracker. PathAuto resolves per chunk against the live headroom: the
// LSD scatter while its scratch fits, the in-place MSD when memory is
// tight (about half the scratch — one pair buffer, no element gather
// buffer). Closure-only codecs bypass the radix engines and charge
// nothing. The striped sorter's run formation shares it.
func SortChunkBudgeted[T any](c elem.Codec[T], n *cluster.Node, path psort.Path, workers int, chunk []T) {
	if _, keyed := elem.Codec[T](c).(elem.KeyedCodec[T]); !keyed {
		psort.Sort(c, chunk, workers)
		return
	}
	if path == psort.PathAuto {
		path = psort.PathLSD
		need := scratchElems(psort.PathLSD, c.Size(), len(chunk), workers)
		if lim := n.Mem.Limit(); lim > 0 && n.Mem.Used()+need > lim {
			path = psort.PathMSD
		}
	}
	scratch := scratchElems(path, c.Size(), len(chunk), workers)
	n.Mem.MustAcquire(scratch)
	psort.SortPath(c, chunk, workers, path)
	n.Mem.Release(scratch)
}

// scratchElems converts psort's scratch bytes into budget elements
// (rounded up) — the tracker's unit.
func scratchElems(path psort.Path, elemSize, n, workers int) int64 {
	b := psort.ScratchBytes(path, elemSize, n, workers)
	return (b + int64(elemSize) - 1) / int64(elemSize)
}

// rankBounds returns the P+1 exact boundary ranks 0, N/P, 2N/P, …, N.
func rankBounds(total int64, p int) []int64 {
	b := make([]int64, p+1)
	for i := 0; i <= p; i++ {
		b[i] = total * int64(i) / int64(p)
	}
	return b
}

// cutAt returns this PE's slice [lo, hi) of its local chunk destined
// for PE q, given this PE's local cut positions for ranks 1..P-1.
func cutAt(cuts []int64, q int, chunkLen int64, p int) (int64, int64) {
	lo := int64(0)
	if q > 0 {
		lo = cuts[q-1]
	}
	hi := chunkLen
	if q < p-1 {
		hi = cuts[q]
	}
	return lo, hi
}

// firstMultiple returns the smallest multiple of k that is >= x.
func firstMultiple(x, k int64) int64 {
	return (x + k - 1) / k * k
}
