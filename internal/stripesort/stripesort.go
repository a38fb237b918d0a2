// Package stripesort implements the paper's Section III algorithm:
// multiway mergesort with *global striping*. Runs and the final output
// are striped over all disks of the machine (block g of a sequence
// lives on PE g mod P), merging is driven by a prediction sequence
// (the smallest key of every data block) so that blocks are fetched in
// exactly the order merging needs them, and batches of Θ(M/B) blocks
// are merged with the distributed internal merge.
//
// Contrast with CANONICALMERGESORT (internal/core): this algorithm's
// I/O volume is exactly 4N — two passes even for inputs near the
// theoretical M²/B limit, a factor P beyond canonical's capacity — but
// every pass communicates the data up to twice (internal sorting or
// merging, then striping), i.e. ~4 communications versus ~1, and the
// output layout is globally striped rather than canonical. This is the
// trade-off the paper's Sections III/IV discuss and the ablation
// benchmarks measure.
package stripesort

import (
	"fmt"
	"io"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/psort"
	"demsort/internal/vtime"
)

// Phase names for the two accounted phases.
const (
	PhaseRunForm = "run formation"
	PhaseMerge   = "merge"
)

// Config parameterises the striped sort.
type Config struct {
	// P is the number of PEs.
	P int
	// BlockBytes is the block size B in bytes.
	BlockBytes int
	// MemElems is the per-PE memory budget m in elements.
	MemElems int64
	// RunFraction sizes the per-PE share of a run (default 0.25).
	RunFraction float64
	// Randomize shuffles local input blocks before run formation (it
	// helps the merge phase's disk balance, not data placement —
	// striping already balances placement).
	Randomize bool
	// Seed drives randomization.
	Seed uint64
	// Overlap selects the modelled schedule, as core.Config.Overlap:
	// on, modelled I/O runs behind compute; off, the modelled clock
	// waits in lock-step. It also sets the collect's A2AStream window
	// (2 on, 1 off). Real I/O, traffic and output are the same either
	// way.
	Overlap bool
	// RealWorkers is the genuine sorting parallelism inside a PE.
	RealWorkers int
	// RadixPath selects the keyed-codec radix engine of the run
	// formation sorts, mirroring core.Config.RadixPath: PathAuto (zero
	// value) picks the LSD scatter while its scratch fits the live
	// budget headroom and the in-place MSD otherwise.
	RadixPath psort.Path
	// KeepOutput retains the sorted output for validation. It is
	// implemented on top of the Sink path (the output blocks are
	// re-routed from their striped homes to canonical owners and
	// decoded), so it requires every PE to be hosted in-process.
	KeepOutput bool
	// Source, when non-nil, streams each locally hosted rank's input
	// as encoded element bytes (see core.Config.Source): the load
	// phase reads it block-at-a-time onto the rank's volume, holding
	// only blockio.FillStages staging blocks in RAM. With Source set
	// the input argument of Sort must be nil.
	Source func(rank int) (io.Reader, int64, error)
	// Sink, when non-nil, streams the sorted output: after the merge,
	// the striped blocks are re-routed over the transport so that rank
	// i receives the contiguous output block range [G·i/P, G·(i+1)/P)
	// in ascending order — concatenating the per-rank sink streams in
	// rank order yields the globally sorted sequence (demsort's
	// -striped part files). Calls for one rank are sequential and in
	// output order; on the sim backend distinct ranks stream
	// concurrently. Sink must be set (or unset) uniformly across the
	// processes of one machine; an error aborts the sort.
	Sink func(rank int, encoded []byte) error
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// NewStore optionally overrides the block store factory.
	NewStore func(rank int) (blockio.Store, error)
	// Machine optionally supplies a pre-built transport backend; nil
	// builds a cluster/sim machine from the fields above (see
	// core.Config.Machine for the contract).
	Machine cluster.Machine
}

// DefaultConfig mirrors core.DefaultConfig for the striped algorithm.
func DefaultConfig(p int, memElems int64, blockBytes int) Config {
	return Config{
		P:           p,
		BlockBytes:  blockBytes,
		MemElems:    memElems,
		RunFraction: 0.2,
		Randomize:   true,
		Seed:        1,
		Overlap:     true,
		RealWorkers: psort.DefaultWorkers(),
		Model:       vtime.Default(),
	}
}

// Result mirrors core.Result for the striped algorithm.
type Result[T any] struct {
	P          int
	N          int64
	ElemSize   int
	BlockElems int
	Runs       int
	Batches    int
	PhaseNames []string
	PerPE      []map[string]*vtime.PhaseStats
	// Output is the globally sorted data reassembled from the stripes
	// (only with KeepOutput).
	Output []T
	// StripedBlocks[rank] is the number of output blocks PE rank
	// stores — the striped layout itself.
	StripedBlocks []int64
	// OutputLens[rank] is the element count delivered to rank's Sink
	// (its canonical block-range share of the output); zero when no
	// sink ran.
	OutputLens   []int64
	PeakMemElems []int64
}

// MaxWall and PhaseBytes mirror core.Result.
func (r *Result[T]) MaxWall(phase string) float64 {
	var w float64
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok && s.Wall > w {
			w = s.Wall
		}
	}
	return w
}

// TotalWall returns the modelled total running time.
func (r *Result[T]) TotalWall() float64 {
	var t float64
	for _, ph := range r.PhaseNames {
		t += r.MaxWall(ph)
	}
	return t
}

// PhaseBytes returns machine-wide (read, written) bytes in a phase.
func (r *Result[T]) PhaseBytes(phase string) (read, written int64) {
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok {
			read += s.BytesRead
			written += s.BytesWritten
		}
	}
	return read, written
}

// OverlapRatio mirrors core.Result: 1 − blocked/wall for one phase,
// summed across the PEs and clamped to [0, 1].
func (r *Result[T]) OverlapRatio(phase string) float64 {
	var wall, blocked float64
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok {
			wall += s.Wall
			blocked += s.BlockedTime
		}
	}
	if wall <= 0 {
		return 0
	}
	ratio := 1 - blocked/wall
	if ratio < 0 {
		return 0
	}
	return ratio
}

// NetBytes returns machine-wide network bytes sent in a phase.
func (r *Result[T]) NetBytes(phase string) int64 {
	var b int64
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok {
			b += s.BytesSent
		}
	}
	return b
}

// stripedBlock is one globally striped output block this PE homes:
// global output block index idx, stored as block id with len elements.
type stripedBlock struct {
	idx int64
	id  blockio.BlockID
	len int
}

// predEntry is one prediction-sequence entry: block blk of run run
// starts with key first (its globally smallest unread element).
// firstKey caches first's normalized uint64 key (elem.KeyFn) so the
// prediction sort and the batch-boundary probes run on integers, with
// the comparator only breaking equal inexact keys.
type predEntry[T any] struct {
	first    T
	firstKey uint64
	run      int
	blk      int64
}

// Sort runs the globally striped mergesort. input[i] starts on PE i's
// disks; afterwards the sorted sequence is striped across all PEs
// (output block g on PE g mod P).
func Sort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("stripesort: P must be >= 1")
	}
	if cfg.Source == nil && len(input) != cfg.P {
		return nil, fmt.Errorf("stripesort: input has %d slices for %d PEs", len(input), cfg.P)
	}
	if cfg.Source != nil && input != nil {
		return nil, fmt.Errorf("stripesort: Source and input slices are mutually exclusive")
	}
	if cfg.Model == (vtime.CostModel{}) {
		cfg.Model = vtime.Default()
	}
	if cfg.RealWorkers <= 0 {
		cfg.RealWorkers = 1
	}
	sz := c.Size()
	if cfg.BlockBytes < sz {
		return nil, fmt.Errorf("stripesort: block smaller than one element")
	}
	bElem := cfg.BlockBytes / sz
	rf := cfg.RunFraction
	if rf <= 0 || rf > 0.5 {
		rf = 0.25
	}
	runLocal := int64(float64(cfg.MemElems) * rf)
	if cfg.MemElems <= 0 {
		runLocal = int64(bElem) * 64
	}
	bpr := int(runLocal / int64(bElem))
	if bpr < 1 {
		bpr = 1
	}
	runLocal = int64(bpr) * int64(bElem)

	// Open the streaming sources of the locally hosted ranks up front:
	// their element counts drive the capacity check exactly like the
	// slice lengths do, while the streams are consumed in the load
	// phase (core.OpenSources is the shared contract enforcement).
	sources, sourceN, err := core.OpenSources(cfg.Source, cfg.Machine, cfg.P)
	if err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}

	// Capacity: the merge keeps at most one leftover block per run in
	// memory machine-wide, and each PE buffers its fetch quota, so R
	// may grow to Θ(M/B) — the global constraint of Section III.
	var nPerPE int64
	for _, part := range input {
		if int64(len(part)) > nPerPE {
			nPerPE = int64(len(part))
		}
	}
	for _, cnt := range sourceN {
		if cnt > nPerPE {
			nPerPE = cnt
		}
	}
	runs := int((nPerPE + runLocal - 1) / runLocal)
	if runs < 1 {
		runs = 1
	}
	if cfg.MemElems > 0 {
		if globalLeftover := int64(runs) * int64(bElem); globalLeftover > int64(cfg.P)*cfg.MemElems/4 {
			return nil, fmt.Errorf("stripesort: %d runs exceed the machine capacity M/(4B) = %d",
				runs, int64(cfg.P)*cfg.MemElems/(4*int64(bElem)))
		}
	}

	m := cfg.Machine
	if m == nil {
		sm, err := sim.New(sim.Config{
			P:          cfg.P,
			BlockBytes: cfg.BlockBytes,
			MemElems:   cfg.MemElems,
			Model:      cfg.Model,
			NewStore:   cfg.NewStore,
		})
		if err != nil {
			return nil, err
		}
		defer sm.Close()
		m = sm
	} else if m.P() != cfg.P {
		return nil, fmt.Errorf("stripesort: machine has %d PEs, config says %d", m.P(), cfg.P)
	}

	// KeepOutput rides on the Sink path: an internal sink decodes each
	// rank's contiguous output range, and the ranges concatenate in
	// rank order to the globally sorted sequence. Distinct ranks write
	// distinct slots, so the sim backend's concurrent PEs need no lock.
	sink := cfg.Sink
	var keep [][]T
	if cfg.KeepOutput {
		if len(m.Nodes()) != cfg.P {
			return nil, fmt.Errorf("stripesort: KeepOutput needs all %d PEs hosted in-process (machine hosts %d); stream a distributed run through Sink instead", cfg.P, len(m.Nodes()))
		}
		keep = make([][]T, cfg.P)
		user := sink
		sink = func(rank int, b []byte) error {
			keep[rank] = elem.AppendDecode(c, keep[rank], b, len(b)/sz)
			if user != nil {
				return user(rank, b)
			}
			return nil
		}
	}

	res := &Result[T]{
		P:             cfg.P,
		ElemSize:      sz,
		BlockElems:    bElem,
		PhaseNames:    []string{PhaseRunForm, PhaseMerge},
		PerPE:         make([]map[string]*vtime.PhaseStats, cfg.P),
		StripedBlocks: make([]int64, cfg.P),
		OutputLens:    make([]int64, cfg.P),
		PeakMemElems:  make([]int64, cfg.P),
	}
	batches := make([]int, cfg.P)
	runsSeen := make([]int, cfg.P)
	totalN := make([]int64, cfg.P)

	err = m.Run(func(n *cluster.Node) error {
		var myInput []T
		if cfg.Source == nil {
			myInput = input[n.Rank]
		}
		st, err := runPE(c, n, &cfg, bElem, bpr, sources[n.Rank], sourceN[n.Rank], myInput, sink)
		if err != nil {
			return err
		}
		res.StripedBlocks[n.Rank] = int64(len(st.outBlocks))
		res.PeakMemElems[n.Rank] = n.Mem.Peak()
		batches[n.Rank] = st.batches
		runsSeen[n.Rank] = st.runs
		totalN[n.Rank] = st.totalN
		res.OutputLens[n.Rank] = st.outN
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, node := range m.Nodes() {
		_, stats := node.PhaseStats()
		res.PerPE[node.Rank] = stats
	}
	local0 := m.Nodes()[0].Rank
	res.Runs = runsSeen[local0]
	res.Batches = batches[local0]
	res.N = totalN[local0]
	if cfg.KeepOutput {
		for _, part := range keep {
			res.Output = append(res.Output, part...)
		}
	}
	return res, nil
}

// peState is what one PE reports back.
type peState[T any] struct {
	outBlocks []stripedBlock
	batches   int
	runs      int
	totalN    int64
	outN      int64 // elements delivered to this rank's sink
}
