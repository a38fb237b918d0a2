// Package core implements CANONICALMERGESORT (Section IV of the
// paper), the primary contribution: a distributed-memory external
// mergesort whose output is the canonical partition — PE i ends up with
// the elements of global ranks (i·N/P, (i+1)·N/P] striped over its
// local disks — while communicating the data only once in the best
// case and needing 4N + o(N) I/O volume.
//
// The four phases, each accounted separately (Figures 2-4, 6):
//
//  1. run formation (runform.go): R global runs are formed from
//     randomly chosen local blocks, sorted with the distributed
//     internal sort, written to local disks, and sampled;
//  2. multiway selection (selection.go): exact global splitters for
//     the ranks i·N/P over all R runs, bootstrapped from the in-memory
//     sample and finished on a few remotely fetched blocks;
//  3. external all-to-all (exchange.go): data redistribution in
//     memory-sized sub-operations, with the self-destined majority
//     relabelled in place with zero I/O;
//  4. final merge (mergelocal.go): every PE merges its R local run
//     pieces with prefetching, entirely without communication.
package core

import (
	"fmt"
	"io"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/psort"
	"demsort/internal/vtime"
)

// Phase names used in per-phase statistics and the figures.
const (
	PhaseLoad      = "load"
	PhaseRunForm   = "run formation"
	PhaseSelection = "multiway selection"
	PhaseExchange  = "all-to-all"
	PhaseMerge     = "final merge"
)

// Phases lists the accounted sort phases in algorithm order.
func Phases() []string {
	return []string{PhaseRunForm, PhaseSelection, PhaseExchange, PhaseMerge}
}

// Config parameterises a sort on the simulated cluster.
type Config struct {
	// P is the number of PEs (cluster nodes).
	P int
	// BlockBytes is the block size B in bytes (paper default 8 MiB).
	BlockBytes int
	// MemElems is the per-PE internal memory budget m in elements.
	MemElems int64
	// RunFraction sizes the per-PE share of one run as a fraction of
	// MemElems. Run formation holds the unsorted chunk, the merged
	// result and the next run's prefetch at once, so 0.25 is the
	// default (the paper's footnote 1: runs can be "a factor around
	// two smaller" than M).
	RunFraction float64
	// SampleK is the sampling distance K in elements (0 = one block,
	// the Appendix B choice K = B).
	SampleK int64
	// Randomize enables the random shuffling of local input block IDs
	// before run formation (§IV: "each PE chooses its participating
	// blocks for the run randomly"). Figures 4 vs 6 are this switch.
	Randomize bool
	// Seed drives all randomization.
	Seed uint64
	// Overlap selects the modelled schedule of §IV-E: on, the modelled
	// clock lets I/O run behind compute and communication; off, it
	// waits for every read and write in lock-step — the ablation knob.
	// It also sets the all-to-all's A2AStream window (2 on, 1 off).
	// Real backends run the same pipeline and do the same I/O and
	// traffic either way; the output is byte-identical.
	Overlap bool
	// SingleRunOpt enables the §IV-E special case for inputs that fit
	// into one run: blocks are sorted as they arrive and merged,
	// instead of sorted monolithically.
	SingleRunOpt bool
	// RealWorkers is the number of goroutines used for genuine
	// in-node sorting work (virtual CPU time always models
	// Model.Cores cores). DefaultConfig sets it to GOMAXPROCS clamped
	// to 8; set 1 explicitly for runs that must be byte-reproducible
	// across machines with different core counts (psort output is
	// stable for any worker count, but pinning removes all doubt in
	// determinism-sensitive tests).
	RealWorkers int
	// RadixPath selects the radix engine for run formation's in-node
	// sorts of keyed codecs (psort.SortPath). The zero value
	// (psort.PathAuto) resolves per chunk against the live memory
	// budget: the LSD scatter while its scratch fits the remaining
	// headroom, the in-place American-flag MSD when memory is tight —
	// scratch charged against m is scratch stolen from run length.
	// Forcing a path is a test/benchmark knob.
	RadixPath psort.Path
	// KeepOutput retains the sorted output so Result.Output can read
	// it back (tests); production callers stream it from the volumes.
	KeepOutput bool
	// Source, when non-nil, streams each locally hosted rank's input as
	// encoded element bytes — the streaming dual of Sink, and the
	// scalable alternative to the input slices. It returns the rank's
	// byte stream and its element count; the load phase reads it
	// block-at-a-time straight onto the rank's volume through
	// blockio.FillFrom's pooled staging buffers, so loading never holds
	// more than blockio.FillStages blocks of the tile in RAM (demsort's
	// -infile path). With Source set the input argument of Sort must be
	// nil. Reader lifecycle belongs to the caller (Sort consumes exactly
	// count·elemSize bytes and does not Close). With a remote backend
	// Source is only called for the locally hosted ranks, and every
	// process must report the same per-rank counts.
	Source func(rank int) (io.Reader, int64, error)
	// Sink, when non-nil, streams each locally hosted rank's sorted
	// output as encoded element bytes — in order, block-at-a-time,
	// straight off the rank's block store — during the collect step.
	// It is the scalable alternative to KeepOutput: the output never
	// has to be materialized in RAM (demsort's tcp workers write their
	// part files through it). The byte slice is only valid for the
	// duration of the call. Calls for one rank are sequential; on the
	// sim backend different ranks stream concurrently, so a Sink
	// shared across ranks must be safe for concurrent calls with
	// distinct rank arguments. A Sink error aborts the sort.
	Sink func(rank int, encoded []byte) error
	// Checkpoint enables the durable checkpoint/restart plane: after
	// run formation and after selection each rank commits a phase
	// manifest under Checkpoint.Dir, and with Resume set a restarted
	// rank rebuilds its state from the manifest instead of re-reading
	// input. Requires a durable block store (see checkpoint.go).
	Checkpoint CheckpointConfig
	// Model is the virtual-time cost model (zero value: vtime.Default).
	Model vtime.CostModel
	// NewStore optionally overrides the per-PE block store (e.g.
	// file-backed); nil uses RAM-backed stores.
	NewStore func(rank int) (blockio.Store, error)
	// Machine optionally supplies a pre-built transport backend (e.g.
	// a cluster/tcp machine hosting this process's rank). nil builds a
	// cluster/sim machine from the fields above and closes it after
	// the sort; a supplied Machine is left open — its lifecycle
	// belongs to the caller. With a remote backend only the locally
	// hosted ranks appear in input/Result slots, and every process
	// must pass the same per-PE input size (SampleK auto-sizing and
	// capacity checks are derived from the local part).
	Machine cluster.Machine
}

// DefaultConfig returns a ready-to-use configuration for p PEs with a
// per-PE memory budget of memElems elements and the given block size.
func DefaultConfig(p int, memElems int64, blockBytes int) Config {
	return Config{
		P:            p,
		BlockBytes:   blockBytes,
		MemElems:     memElems,
		RunFraction:  0.25,
		Randomize:    true,
		Seed:         1,
		Overlap:      true,
		SingleRunOpt: true,
		RealWorkers:  psort.DefaultWorkers(),
		Model:        vtime.Default(),
	}
}

// derived holds the parameters computed from a validated config for a
// particular element size.
type derived struct {
	bElem        int   // B in elements
	runLocal     int64 // per-PE elements contributed to one run
	blocksPerRun int
	sampleK      int64
}

// derive validates cfg against an element size and computes the
// derived parameters, enforcing the paper's memory constraints.
func (cfg *Config) derive(elemSize int) (derived, error) {
	var d derived
	if cfg.P < 1 {
		return d, fmt.Errorf("core: P must be >= 1, got %d", cfg.P)
	}
	if cfg.BlockBytes < elemSize {
		return d, fmt.Errorf("core: block size %d smaller than one element (%d)", cfg.BlockBytes, elemSize)
	}
	d.bElem = cfg.BlockBytes / elemSize
	if cfg.MemElems > 0 && int64(d.bElem)*4 > cfg.MemElems {
		return d, fmt.Errorf("core: memory budget %d elements cannot hold 4 blocks of %d", cfg.MemElems, d.bElem)
	}
	rf := cfg.RunFraction
	if rf <= 0 || rf > 0.5 {
		rf = 0.25
	}
	if cfg.MemElems > 0 {
		d.runLocal = int64(float64(cfg.MemElems) * rf)
	} else {
		d.runLocal = int64(d.bElem) * 64
	}
	d.blocksPerRun = int(d.runLocal / int64(d.bElem))
	if d.blocksPerRun < 1 {
		d.blocksPerRun = 1
	}
	d.runLocal = int64(d.blocksPerRun) * int64(d.bElem)
	d.sampleK = cfg.SampleK
	if d.sampleK <= 0 {
		d.sampleK = int64(d.bElem)
	}
	return d, nil
}

// CheckCapacity verifies that nPerPE elements per PE can be sorted in
// two passes under cfg: the final merge needs two prefetch buffers and
// an output buffer per run within the memory budget, and the sample
// must fit in memory. This is the practical form of the paper's
// O(P·m²/B) capacity bound (§IV-D).
func (cfg *Config) CheckCapacity(elemSize int, nPerPE int64) error {
	d, err := cfg.derive(elemSize)
	if err != nil {
		return err
	}
	if cfg.MemElems <= 0 {
		return nil
	}
	runs := (nPerPE + d.runLocal - 1) / d.runLocal
	if runs < 1 {
		runs = 1
	}
	// Merge memory: 2 input blocks per run (double buffering) plus an
	// output block, within half the budget.
	if need := (2*runs + 1) * int64(d.bElem); need > cfg.MemElems/2 {
		return fmt.Errorf("core: %d runs of %d-element blocks need %d elements of merge buffers, budget allows %d — input too large for two passes (capacity %d elements/PE)",
			runs, d.bElem, need, cfg.MemElems/2, cfg.MaxElemsPerPE(elemSize))
	}
	// Sample memory: N/K elements on every PE, within an eighth.
	sample := runs * ((d.runLocal*int64(cfg.P) + d.sampleK - 1) / d.sampleK)
	if sample > cfg.MemElems/8 {
		return fmt.Errorf("core: sample of %d elements exceeds budget share %d; increase SampleK", sample, cfg.MemElems/8)
	}
	return nil
}

// MaxElemsPerPE returns the largest two-pass-sortable input per PE
// under cfg: the merge-buffer constraint caps the number of runs at
// m/(4B)-ish, each contributing RunFraction·m elements. Multiplying by
// P gives the machine capacity Θ(P·m²/B) from §IV-D.
func (cfg *Config) MaxElemsPerPE(elemSize int) int64 {
	d, err := cfg.derive(elemSize)
	if err != nil || cfg.MemElems <= 0 {
		return 0
	}
	maxRuns := (cfg.MemElems/2 - int64(d.bElem)) / (2 * int64(d.bElem))
	if maxRuns < 1 {
		return 0
	}
	return maxRuns * d.runLocal
}
