package stripesort

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/core"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/xmerge"
)

// runPE executes the whole striped sort on one PE. Input arrives
// either as src (a stream of srcN encoded elements, loaded through
// FillFrom's staging blocks) or as the myInput slice; sink receives
// the rank's contiguous share of the sorted output (nil = leave the
// striped blocks on the volumes).
func runPE[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, bElem, bpr int, src io.Reader, srcN int64, myInput []T, sink func(rank int, b []byte) error) (*peState[T], error) {
	sz := c.Size()
	key, exact := elem.KeyFn(c)

	// ----- Load input onto local disks (unmeasured) -----
	n.SetPhase("load")
	type inBlock struct {
		id  blockio.BlockID
		len int
	}
	var inBlocks []inBlock
	if src != nil {
		stage := blockio.FillStages * int64(bElem)
		n.Mem.MustAcquire(stage)
		spans, err := n.Vol.FillFrom(src, srcN*int64(sz), bElem*sz)
		n.Mem.Release(stage)
		if err != nil {
			for _, sp := range spans {
				n.Vol.Free(sp.ID)
			}
			return nil, fmt.Errorf("stripesort: input source, rank %d: %w", n.Rank, err)
		}
		for _, sp := range spans {
			inBlocks = append(inBlocks, inBlock{sp.ID, sp.Bytes / sz})
		}
	} else {
		loadEnc := bufpool.Get(bElem * sz)
		for off := 0; off < len(myInput); off += bElem {
			hi := off + bElem
			if hi > len(myInput) {
				hi = len(myInput)
			}
			id := n.Vol.Alloc()
			eb := loadEnc[:(hi-off)*sz]
			elem.EncodeInto(c, eb, myInput[off:hi])
			n.Vol.WriteAsync(id, eb)
			inBlocks = append(inBlocks, inBlock{id, hi - off})
		}
		bufpool.Put(loadEnc)
	}
	n.Vol.Drain()
	n.Barrier()

	// ----- Phase 1: run formation with global striping -----
	n.SetPhase(PhaseRunForm)
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+0x57121))
		rng.Shuffle(len(inBlocks), func(i, j int) { inBlocks[i], inBlocks[j] = inBlocks[j], inBlocks[i] })
	}
	myRuns := (len(inBlocks) + bpr - 1) / bpr
	runs := int(n.AllReduceInt64(int64(myRuns), "max"))
	if runs == 0 {
		runs = 1
	}

	// Per run, the striped blocks this PE stores and their first keys.
	type runBlock struct {
		blk   int64
		id    blockio.BlockID
		len   int
		first T
	}
	stored := make([][]runBlock, runs)
	runLens := make([]int64, runs)

	raw := bufpool.Get(cfg.BlockBytes)
	var frames []stripeFrame
	for r := 0; r < runs; r++ {
		runBlocks := inBlocks[min(r*bpr, len(inBlocks)):min((r+1)*bpr, len(inBlocks))]
		var chunkLen int64
		for _, b := range runBlocks {
			chunkLen += int64(b.len)
		}
		n.Mem.MustAcquire(chunkLen)
		chunk := make([]T, chunkLen)
		off := 0
		for _, b := range runBlocks {
			n.Vol.ReadWait(b.id, raw[:b.len*sz])
			elem.DecodeInto(c, chunk[off:off+b.len], raw)
			off += b.len
			n.Vol.Free(b.id)
		}
		core.SortChunkBudgeted(c, n, cfg.RadixPath, cfg.RealWorkers, chunk)
		n.AddCPU(cfg.Model.SortCPU(chunkLen) + cfg.Model.ScanCPU(chunkLen))

		runLen := n.AllReduceInt64(chunkLen, "sum")
		runLens[r] = runLen
		bounds := make([]int64, n.P+1)
		for i := 0; i <= n.P; i++ {
			bounds[i] = runLen * int64(i) / int64(n.P)
		}
		send := encodeParts(c, chunk, dselect.Cuts(c, n, chunk, bounds[1:n.P]))
		n.AddCPU(cfg.Model.ScanCPU(chunkLen))
		n.Mem.Release(chunkLen) // decoded chunk dropped (send buffers encoded)
		recv := n.AllToAllv(send)
		segLen := bounds[n.Rank+1] - bounds[n.Rank]
		// Decoded pieces (in the dead chunk's array when it fits) +
		// merged segment + encoded stripe frames.
		n.Mem.MustAcquire(3 * segLen)
		pieces, got := decodeParts(c, recv, chunk)
		if got != segLen {
			return nil, fmt.Errorf("stripesort: run %d: segment %d != %d", r, got, segLen)
		}
		merged := xmerge.Merge(c, pieces)
		n.AddCPU(cfg.Model.MergeCPU(segLen, n.P) + cfg.Model.ScanCPU(segLen))

		// Stripe the sorted run globally: block g of the run goes to
		// PE g mod P — the extra communication of Section III.
		stripeSend := stripeFrames(c, n.P, bElem, bounds[n.Rank], merged)
		n.AddCPU(cfg.Model.ScanCPU(segLen))
		stripeRecv := n.AllToAllv(stripeSend)

		// Assemble and write the striped blocks this PE homes, in block
		// order. A block's stripes arrive encoded from up to two PEs;
		// they are copied into one block buffer and written as they
		// are, and only the block's first element is decoded (for the
		// prediction sequence).
		frames = appendFrames(frames[:0], stripeRecv, sz)
		slices.SortFunc(frames, func(a, b stripeFrame) int {
			return cmp.Or(cmp.Compare(a.g, b.g), cmp.Compare(a.off, b.off))
		})
		for i := 0; i < len(frames); {
			g := frames[i].g
			total := int(min(int64(bElem), runLen-g*int64(bElem)))
			filled := 0
			for ; i < len(frames) && frames[i].g == g; i++ {
				copy(raw[frames[i].off*sz:], frames[i].data)
				filled += frames[i].cnt
			}
			if filled != total {
				return nil, fmt.Errorf("stripesort: run %d block %d assembled %d/%d", r, g, filled, total)
			}
			id := n.Vol.Alloc()
			n.Vol.WriteAsync(id, raw[:total*sz])
			stored[r] = append(stored[r], runBlock{blk: g, id: id, len: total, first: c.Decode(raw[:sz])})
		}
		cluster.RecycleRecv(stripeRecv)
		n.AddCPU(cfg.Model.ScanCPU(segLen))
		n.Mem.Release(3 * segLen)
		if !cfg.Overlap {
			n.Vol.Drain()
		}
	}
	bufpool.Put(raw)
	n.Vol.Drain()

	// Build the global prediction sequence: the first key of every
	// block of every run, allgathered so each PE can compute the fetch
	// order deterministically.
	var predBuf []byte
	for r := 0; r < runs; r++ {
		for _, rb := range stored[r] {
			var hdr [12]byte
			binary.LittleEndian.PutUint32(hdr[:4], uint32(r))
			binary.LittleEndian.PutUint64(hdr[4:], uint64(rb.blk))
			predBuf = append(predBuf, hdr[:]...)
			predBuf = elem.AppendEncode(c, predBuf, []T{rb.first})
		}
	}
	predAll := n.AllGather(predBuf)
	var pred []predEntry[T]
	for _, pb := range predAll {
		for len(pb) > 0 {
			r := int(binary.LittleEndian.Uint32(pb[:4]))
			blk := int64(binary.LittleEndian.Uint64(pb[4:12]))
			v := c.Decode(pb[12 : 12+sz])
			pb = pb[12+sz:]
			pred = append(pred, predEntry[T]{first: v, firstKey: key(v), run: r, blk: blk})
		}
	}
	sort.Slice(pred, func(i, j int) bool {
		a, b := pred[i], pred[j]
		if a.firstKey != b.firstKey {
			return a.firstKey < b.firstKey
		}
		if !exact {
			if c.Less(a.first, b.first) {
				return true
			}
			if c.Less(b.first, a.first) {
				return false
			}
		}
		if a.run != b.run {
			return a.run < b.run
		}
		return a.blk < b.blk
	})
	n.Mem.MustAcquire(int64(len(pred)))
	n.Barrier()

	// ----- Phase 2: prediction-driven batch merging -----
	n.SetPhase(PhaseMerge)
	st := &peState[T]{runs: runs}
	// Index of my stored blocks for O(1) lookup.
	myIdx := map[[2]int64]runBlock{}
	for r := 0; r < runs; r++ {
		for _, rb := range stored[r] {
			myIdx[[2]int64{int64(r), rb.blk}] = rb
		}
	}

	quota := 4
	if cfg.MemElems > 0 {
		// The prediction table is a first-class memory consumer (the
		// paper's footnote 12 notes the same pressure); size the batch
		// fetch quota from what remains.
		avail := cfg.MemElems - int64(len(pred))
		if avail < cfg.MemElems/8 {
			avail = cfg.MemElems / 8
		}
		quota = int(avail / (16 * int64(bElem)))
		if quota < 1 {
			quota = 1
		}
	}
	// lessTot orders (element, run, pos) totally — the barrier rule —
	// probing normalized uint64 keys first; the comparator runs only
	// on equal inexact keys (never for U64/KV16, and only on shared
	// 8-byte prefixes for Rec100).
	lessTot := func(ak uint64, a T, ar int, ap int64, bk uint64, b T, br int, bp int64) bool {
		if ak != bk {
			return ak < bk
		}
		if !exact {
			if c.Less(a, b) {
				return true
			}
			if c.Less(b, a) {
				return false
			}
		}
		if ar != br {
			return ar < br
		}
		return ap < bp
	}

	type piece struct {
		pos   int64
		elems []T
	}
	pending := make([][]piece, runs)
	// Output blocks under assembly, as encoded bytes: a block's stripes
	// can arrive over several batches. writeOut persists one and
	// records its global index (the collect step routes on it).
	outAsm := map[int64]*outBlock{}
	writeOut := func(o int64, a *outBlock) {
		id := n.Vol.Alloc()
		n.Vol.WriteAsync(id, a.data[:a.filled*sz])
		bufpool.Put(a.data)
		st.outBlocks = append(st.outBlocks, stripedBlock{idx: o, id: id, len: a.filled})
	}
	var outCur int64
	cursor := 0

	for cursor < len(pred) {
		// Deterministic batch boundary: stop when any PE's fetch
		// count reaches its quota.
		perPE := make([]int, n.P)
		end := cursor
		for end < len(pred) {
			home := int(pred[end].blk % int64(n.P))
			if perPE[home] == quota {
				break
			}
			perPE[home]++
			end++
		}

		// Fetch my resident blocks of this batch (asynchronously).
		type fetched struct {
			e      predEntry[T]
			raw    []byte
			rb     runBlock
			handle blockio.Handle
		}
		var fs []fetched
		for i := cursor; i < end; i++ {
			e := pred[i]
			if int(e.blk%int64(n.P)) != n.Rank {
				continue
			}
			rb := myIdx[[2]int64{int64(e.run), e.blk}]
			f := fetched{e: e, rb: rb, raw: bufpool.Get(rb.len * sz)}
			f.handle = n.Vol.ReadAsync(rb.id, f.raw)
			if !cfg.Overlap {
				n.Vol.Wait(f.handle)
			}
			fs = append(fs, f)
		}
		for _, f := range fs {
			n.Vol.Wait(f.handle)
			vals := elem.DecodeSlice(c, f.raw, f.rb.len)
			bufpool.Put(f.raw)
			n.Mem.MustAcquire(int64(len(vals)))
			pending[f.e.run] = append(pending[f.e.run], piece{pos: f.e.blk * int64(bElem), elems: vals})
			n.Vol.Free(f.rb.id)
		}
		n.AddCPU(cfg.Model.ScanCPU(int64(len(fs) * bElem)))

		// Barrier: the smallest unfetched element (value and cached
		// normalized key, from the prediction sequence).
		haveBarrier := end < len(pred)
		var bVal T
		var bKey uint64
		var bRun int
		var bPos int64
		if haveBarrier {
			bVal, bKey = pred[end].first, pred[end].firstKey
			bRun, bPos = pred[end].run, pred[end].blk*int64(bElem)
		}

		// Extract everything strictly before the barrier: per run the
		// pending pieces form an ascending chain, so the emittable part
		// is a prefix of each piece. The prefixes go to the merge as they
		// are, in (run, piece) order: the merge breaks ties by sequence
		// index, so equal elements leave in (run, position) order.
		var emitSeqs [][]T
		var emitMine int64
		emitRuns := 0
		for r := 0; r < runs; r++ {
			before := len(emitSeqs)
			rest := pending[r][:0]
			for _, pc := range pending[r] {
				cnt := len(pc.elems)
				if haveBarrier {
					cnt = sort.Search(len(pc.elems), func(j int) bool {
						return !lessTot(key(pc.elems[j]), pc.elems[j], r, pc.pos+int64(j), bKey, bVal, bRun, bPos)
					})
				}
				if cnt > 0 {
					emitSeqs = append(emitSeqs, pc.elems[:cnt])
					emitMine += int64(cnt)
				}
				if cnt < len(pc.elems) {
					rest = append(rest, piece{pos: pc.pos + int64(cnt), elems: pc.elems[cnt:]})
				}
			}
			pending[r] = rest
			if len(emitSeqs) > before {
				emitRuns++
			}
		}
		chunk := xmerge.Merge(c, emitSeqs)
		n.AddCPU(cfg.Model.MergeCPU(emitMine, emitRuns+1))
		n.Mem.MustAcquire(emitMine) // merged chunk; released below

		emitTotal := n.AllReduceInt64(emitMine, "sum")
		if emitTotal > 0 {
			// Distributed merge of the emitted chunks, then stripe the
			// result to the output — the two communications per element
			// of the merging pass. Unlike phase 2's splitters, the
			// batch cuts only need to be order-consistent (the striped
			// layout fixes positions later), so cheap sample-based
			// splitters suffice — exactness here would cost more
			// metadata than the batch carries data.
			recv := n.AllToAllv(encodeParts(c, chunk, sampleCuts(c, n, chunk)))
			var pieceLen int64
			for q := 0; q < n.P; q++ {
				pieceLen += int64(len(recv[q]) / sz)
			}
			// Decoded pieces (in the dead chunk's array when it fits) +
			// merged result.
			n.Mem.MustAcquire(2 * pieceLen)
			ps, _ := decodeParts(c, recv, chunk)
			merged := xmerge.Merge(c, ps)
			n.AddCPU(cfg.Model.MergeCPU(pieceLen, n.P) + 2*cfg.Model.ScanCPU(pieceLen))

			// The batch's output positions follow from the actual piece
			// sizes (approximate splits make them uneven).
			lens := allGatherInt64(n, pieceLen)
			var before int64
			for q := 0; q < n.Rank; q++ {
				before += lens[q]
			}
			myLo := outCur + before
			outRecv := n.AllToAllv(stripeFrames(c, n.P, bElem, myLo, merged))
			frames = appendFrames(frames[:0], outRecv, sz)
			for _, f := range frames {
				a := outAsm[f.g]
				if a == nil {
					a = &outBlock{data: bufpool.Get(bElem * sz)}
					n.Mem.MustAcquire(int64(bElem))
					outAsm[f.g] = a
				}
				copy(a.data[f.off*sz:], f.data)
				a.filled += f.cnt
				if a.filled == bElem {
					writeOut(f.g, a)
					delete(outAsm, f.g)
					n.Mem.Release(int64(bElem))
				}
			}
			cluster.RecycleRecv(outRecv)
			outCur += emitTotal
			n.Mem.Release(2 * pieceLen)
		}
		n.Mem.Release(2 * emitMine) // pending prefixes emitted + merged chunk
		cursor = end
		st.batches++
	}
	// Flush the final partial output block (at most one, on its home).
	for o, a := range outAsm {
		writeOut(o, a)
		n.Mem.Release(int64(bElem))
	}
	n.Mem.Release(int64(len(pred))) // prediction table dead after the merge
	n.Vol.Drain()
	n.Barrier()

	// ----- Collect: stream the output to the per-rank sinks -----
	// (outside the measured phases, like core.Sort's collect step).
	n.SetPhase("collect")
	var myN int64
	for _, b := range st.outBlocks {
		myN += int64(b.len)
	}
	st.totalN = n.AllReduceInt64(myN, "sum")
	outN, err := collectOutput(c, n, cfg, bElem, st.outBlocks, sink)
	if err != nil {
		return nil, err
	}
	st.outN = outN
	return st, nil
}

// collectOutput re-routes the globally striped output blocks to their
// canonical owners and feeds them to the sink in output order: rank i
// receives blocks [G·i/P, G·(i+1)/P), so the per-rank sink streams
// concatenate — in rank order — to the sorted sequence, exactly like
// core.Sort's canonical partition. The transfer runs in windows of W
// consecutive blocks per exchange round, bounding both the sender's
// staging and the receiver's reorder buffer to O(W·B) — the streamed
// replacement for the old in-process [][]outBlock reassembly. Homes
// free their blocks as they are shipped, so the striped copy is
// consumed in place.
func collectOutput[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, bElem int, blocks []stripedBlock, sink func(rank int, b []byte) error) (int64, error) {
	if sink == nil {
		return 0, nil
	}
	sz := c.Size()
	maxIdx := int64(-1)
	for _, b := range blocks {
		if b.idx > maxIdx {
			maxIdx = b.idx
		}
	}
	total := n.AllReduceInt64(maxIdx+1, "max") // G: global output blocks
	if total == 0 {
		return 0, nil
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].idx < blocks[j].idx })
	bounds := make([]int64, n.P+1)
	for i := 0; i <= n.P; i++ {
		bounds[i] = total * int64(i) / int64(n.P)
	}
	owner := func(g int64) int {
		return sort.Search(n.P, func(i int) bool { return bounds[i+1] > g })
	}
	// Window size: every round ships the blocks of W consecutive output
	// indices, so a receiving owner reorders at most W blocks (≤ m/4
	// elements) and a home stages ≈ W/P.
	w := int64(4 * n.P)
	if cfg.MemElems > 0 {
		if lim := cfg.MemElems / (4 * int64(bElem)); lim < w {
			w = lim
		}
	}
	if w < 1 {
		w = 1
	}
	type entry struct {
		idx  int64
		data []byte
	}
	ptr := 0
	var sunk int64
	// buildSend stages the blocks of output indices [w0, w1) and charges
	// their elements to the budget (released once the exchange that
	// carries them completes). Each block travels as [idx u64 | len u32
	// | encoded elements], read straight off the store into an exact
	// bufpool buffer. drain sinks one window's receives.
	buildSend := func(w1 int64) ([][]byte, int64) {
		end := ptr
		sizes := make([]int, n.P)
		for ; end < len(blocks) && blocks[end].idx < w1; end++ {
			sizes[owner(blocks[end].idx)] += 12 + blocks[end].len*sz
		}
		send := make([][]byte, n.P)
		for q, size := range sizes {
			send[q] = bufpool.Get(size)[:0]
		}
		var sendElems int64
		for ; ptr < end; ptr++ {
			b := blocks[ptr]
			dst := owner(b.idx)
			f := send[dst]
			frame := f[len(f) : len(f)+12+b.len*sz]
			binary.LittleEndian.PutUint64(frame[:8], uint64(b.idx))
			binary.LittleEndian.PutUint32(frame[8:12], uint32(b.len))
			n.Vol.ReadWait(b.id, frame[12:])
			send[dst] = f[:len(f)+len(frame)]
			sendElems += int64(b.len)
			n.Vol.Free(b.id)
		}
		n.Mem.MustAcquire(sendElems)
		return send, sendElems
	}
	drain := func(recv [][]byte) error {
		var entries []entry
		var recvElems int64
		for p := 0; p < n.P; p++ {
			buf := recv[p]
			for len(buf) > 0 {
				idx := int64(binary.LittleEndian.Uint64(buf[:8]))
				cnt := int(binary.LittleEndian.Uint32(buf[8:12]))
				entries = append(entries, entry{idx: idx, data: buf[12 : 12+cnt*sz]})
				recvElems += int64(cnt)
				buf = buf[12+cnt*sz:]
			}
		}
		n.Mem.MustAcquire(recvElems)
		sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
		for _, e := range entries {
			if err := sink(n.Rank, e.data); err != nil {
				return fmt.Errorf("stripesort: output sink, rank %d: %w", n.Rank, err)
			}
			sunk += int64(len(e.data)) / int64(sz)
		}
		cluster.RecycleRecv(recv)
		n.Mem.Release(recvElems)
		return nil
	}
	// The windows run over an A2AStream (§IV-E): with overlap, window
	// wi+1's blocks are read off the store and staged while window wi
	// is still on the wire, so the part-file sink writes overlap the
	// next exchange — at most two windows' send staging plus one
	// window's receives are live, each bounded by w blocks.
	nWin := (total + w - 1) / w
	depth := int64(cluster.StreamWindow(cfg.Overlap))
	st := n.OpenA2AStream(int(depth))
	defer st.Close() // idempotent; releases the sender on error unwinds
	var inFlight []int64
	for wi, posted := int64(0), int64(0); wi < nWin; wi++ {
		for ; posted < min(wi+depth, nWin); posted++ {
			send, elems := buildSend(min((posted+1)*w, total))
			st.Post(send)
			inFlight = append(inFlight, elems)
		}
		recv := st.Collect()
		n.Mem.Release(inFlight[0]) // send copies delivered
		inFlight = inFlight[1:]
		if err := drain(recv); err != nil {
			return sunk, err
		}
	}
	st.Close()
	return sunk, nil
}

// encodeParts encodes the parts of the sorted chunk, split at the P-1
// cuts, into exact bufpool buffers: the send side of an all-to-all.
func encodeParts[T any](c elem.Codec[T], chunk []T, cuts []int64) [][]byte {
	send := make([][]byte, len(cuts)+1)
	lo := int64(0)
	for q := range send {
		hi := int64(len(chunk))
		if q < len(cuts) {
			hi = cuts[q]
		}
		send[q] = bufpool.Get(int(hi-lo) * c.Size())
		elem.EncodeInto(c, send[q], chunk[lo:hi])
		lo = hi
	}
	return send
}

// decodeParts decodes the parts received by an all-to-all into
// consecutive slices of one array, recycles the receive buffers and
// returns the parts and their total length. The array is spare's when
// it has room (a buffer that died earlier in the same run or batch, so
// its budget charge is still live), else a fresh exact one.
func decodeParts[T any](c elem.Codec[T], recv [][]byte, spare []T) ([][]T, int64) {
	sz := c.Size()
	total := 0
	for _, b := range recv {
		total += len(b) / sz
	}
	slab := spare[:cap(spare)]
	if len(slab) < total {
		slab = make([]T, total)
	}
	parts := make([][]T, len(recv))
	for q, b := range recv {
		cnt := len(b) / sz
		parts[q] = slab[:cnt:cnt]
		elem.DecodeInto(c, parts[q], b)
		slab = slab[cnt:]
	}
	cluster.RecycleRecv(recv)
	return parts, int64(total)
}

// outBlock is an output block under assembly: filled elements of
// encoded data, in a bufpool buffer of one block.
type outBlock struct {
	data   []byte
	filled int
}

// frameHdr is the size of a stripe frame's header: the block index
// (u64), the element offset within the block (u32) and the element
// count (u32).
const frameHdr = 16

// stripeFrame is one received stripe: cnt encoded elements that go to
// element offset off of block g.
type stripeFrame struct {
	g        int64
	off, cnt int
	data     []byte
}

// stripeFrames frames data, the elements at positions [lo,
// lo+len(data)) of a sequence striped in blocks of bElem elements,
// for the all-to-all that sends each stripe to its block's home (block
// g lives on PE g mod p). A sizing pass gives every destination an
// exact bufpool buffer of [header | encoded elements] frames.
func stripeFrames[T any](c elem.Codec[T], p, bElem int, lo int64, data []T) [][]byte {
	sz := c.Size()
	b, end := int64(bElem), lo+int64(len(data))
	sizes := make([]int, p)
	for pos := lo; pos < end; {
		g := pos / b
		take := min((g+1)*b, end) - pos
		sizes[g%int64(p)] += frameHdr + int(take)*sz
		pos += take
	}
	send := make([][]byte, p)
	for q, size := range sizes {
		send[q] = bufpool.Get(size)[:0]
	}
	for pos := lo; pos < end; {
		g := pos / b
		take := min((g+1)*b, end) - pos
		home := g % int64(p)
		f := send[home]
		hdr := f[len(f) : len(f)+frameHdr]
		binary.LittleEndian.PutUint64(hdr[:8], uint64(g))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(pos-g*b))
		binary.LittleEndian.PutUint32(hdr[12:16], uint32(take))
		send[home] = elem.AppendEncode(c, f[:len(f)+frameHdr], data[pos-lo:pos-lo+take])
		pos += take
	}
	return send
}

// appendFrames appends the stripe frames of the received buffers to
// dst, in buffer order; the frames alias recv.
func appendFrames(dst []stripeFrame, recv [][]byte, sz int) []stripeFrame {
	for _, buf := range recv {
		for len(buf) > 0 {
			cnt := int(binary.LittleEndian.Uint32(buf[12:16]))
			dst = append(dst, stripeFrame{
				g:    int64(binary.LittleEndian.Uint64(buf[:8])),
				off:  int(binary.LittleEndian.Uint32(buf[8:12])),
				cnt:  cnt,
				data: buf[frameHdr : frameHdr+cnt*sz],
			})
			buf = buf[frameHdr+cnt*sz:]
		}
	}
	return dst
}

// sampleCuts computes order-consistent (but only approximately
// balanced) cut positions of this PE's sorted chunk for a P-way
// distribution: every PE contributes a handful of weighted sample
// elements, all PEs derive the same P-1 splitters from the pooled
// sample, and each cuts its chunk at those splitters under the
// (value, PE, position) total order — so the distributed pieces are
// globally ordered even with duplicate keys.
func sampleCuts[T any](c elem.Codec[T], n *cluster.Node, chunk []T) []int64 {
	sz := c.Size()
	const sPerPE = 8
	// Contribute up to sPerPE evenly spaced elements, each weighted by
	// the share of the chunk it represents.
	var buf []byte
	ln := int64(len(chunk))
	for i := 0; i < sPerPE && ln > 0; i++ {
		idx := ln * int64(i) / sPerPE
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(idx))
		binary.LittleEndian.PutUint64(rec[8:], uint64(ln/sPerPE+1))
		buf = append(buf, rec[:]...)
		buf = elem.AppendEncode(c, buf, []T{chunk[idx]})
	}
	all := n.AllGather(buf)
	type cand struct {
		v      T
		pe     int
		idx    int64
		weight int64
	}
	var pool []cand
	var wTotal int64
	for pe := 0; pe < n.P; pe++ {
		b := all[pe]
		for len(b) > 0 {
			cd := cand{
				pe:     pe,
				idx:    int64(binary.LittleEndian.Uint64(b[:8])),
				weight: int64(binary.LittleEndian.Uint64(b[8:16])),
				v:      c.Decode(b[16 : 16+sz]),
			}
			b = b[16+sz:]
			pool = append(pool, cd)
			wTotal += cd.weight
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		pa, pb := pool[a], pool[b]
		if c.Less(pa.v, pb.v) {
			return true
		}
		if c.Less(pb.v, pa.v) {
			return false
		}
		if pa.pe != pb.pe {
			return pa.pe < pb.pe
		}
		return pa.idx < pb.idx
	})
	cuts := make([]int64, n.P-1)
	for i := 1; i < n.P; i++ {
		target := wTotal * int64(i) / int64(n.P)
		var acc int64
		sp := pool[len(pool)-1]
		for _, cd := range pool {
			acc += cd.weight
			if acc >= target {
				sp = cd
				break
			}
		}
		// Count my chunk elements ordered before the splitter
		// (value, PE, position) — identical tie handling on every PE
		// keeps the distributed pieces disjoint and ordered.
		cuts[i-1] = int64(sort.Search(len(chunk), func(j int) bool {
			v := chunk[j]
			if c.Less(v, sp.v) {
				return false
			}
			if c.Less(sp.v, v) {
				return true
			}
			if n.Rank != sp.pe {
				return n.Rank > sp.pe
			}
			return int64(j) >= sp.idx
		}))
	}
	// Cuts must be monotone (identical splitters in sorted order are).
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	return cuts
}

// allGatherInt64 shares one int64 per PE.
func allGatherInt64(n *cluster.Node, v int64) []int64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	all := n.AllGather(b[:])
	out := make([]int64, len(all))
	for q := range all {
		out[q] = int64(binary.LittleEndian.Uint64(all[q]))
	}
	return out
}
