package core

import (
	"fmt"
	"io"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/vtime"
)

// Result reports a completed sort: per-PE per-phase resource usage
// (the raw material of every figure), derived global metrics, and —
// when requested — the sorted output.
type Result[T any] struct {
	// P is the machine size, N the total element count.
	P int
	N int64
	// ElemSize is the element size in bytes; BlockElems the block
	// size B in elements; Runs the number of global runs R.
	ElemSize   int
	BlockElems int
	Runs       int
	// SubOps is the number k of external all-to-all sub-operations.
	SubOps int
	// PhaseNames lists the accounted phases in order.
	PhaseNames []string
	// PerPE[rank][phase] is the measured per-phase resource usage.
	PerPE []map[string]*vtime.PhaseStats
	// Output[rank] is the sorted data of PE rank (only with
	// Config.KeepOutput).
	Output [][]T
	// OutputLens[rank] is the element count per PE (always set).
	OutputLens []int64
	// PeakMemElems and PeakDiskBlocks are per-PE high-water marks.
	PeakMemElems   []int64
	PeakDiskBlocks []int64
	// LoadPeakMemElems[rank] is the budget high-water mark at the end
	// of the load phase. A Source-fed load charges only its
	// blockio.FillStages staging blocks, so this stays O(B) no matter
	// how large the tile is (the membudget test pins it).
	LoadPeakMemElems []int64
	// RunFormPeakMemElems[rank] is the budget high-water mark at the
	// end of run formation, which now includes the in-node radix sort
	// scratch (pair buffers, histograms, and the LSD gather buffer —
	// the in-place MSD path has no gather buffer, which the membudget
	// test pins as roughly halved scratch). Zero when run formation
	// was restored from a checkpoint instead of executed.
	RunFormPeakMemElems []int64
	// EndMemElems[rank] is the memory budget still reserved when the
	// sort finished — always zero unless a phase leaks reservations
	// (tests assert this).
	EndMemElems []int64
}

// MaxWall returns the slowest PE's wall time for one phase — the
// quantity plotted in Figures 2, 4 and 6 (a phase ends at a barrier,
// so the machine moves at the pace of its slowest PE).
func (r *Result[T]) MaxWall(phase string) float64 {
	var w float64
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok && s.Wall > w {
			w = s.Wall
		}
	}
	return w
}

// TotalWall returns the sum of the per-phase maxima — the modelled
// running time of the sort.
func (r *Result[T]) TotalWall() float64 {
	var t float64
	for _, ph := range r.PhaseNames {
		t += r.MaxWall(ph)
	}
	return t
}

// PhaseBytes returns machine-wide (read, written) disk bytes in a
// phase; PhaseBytes(PhaseExchange) over N·ElemSize is Figure 5's
// y-axis.
func (r *Result[T]) PhaseBytes(phase string) (read, written int64) {
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok {
			read += s.BytesRead
			written += s.BytesWritten
		}
	}
	return read, written
}

// OverlapRatio returns the machine-wide overlap ratio of one phase:
// 1 − (summed blocked time)/(summed wall time) across the PEs, the
// share of the phase spent computing rather than stalled on the
// network or a peer. Zero when the phase recorded no wall time.
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

// NetBytes returns machine-wide bytes sent over the network in a
// phase (self-messages excluded): the communication-volume metric of
// the paper's "communicate the data only once" claim.
func (r *Result[T]) NetBytes(phase string) int64 {
	var b int64
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok {
			b += s.BytesSent
		}
	}
	return b
}

// releaseSamples returns the sample reservations of run formation
// (per-run local samples) and of gatherRunsMeta (the gathered global
// sample) once the splitters are exact — the samples are dead weight
// from here on, and holding them would leak a per-run budget share.
func releaseSamples[T any](n *cluster.Node, meta *runsMeta[T], locals []localRun[T]) {
	var sampleElems int64
	for i := range locals {
		sampleElems += int64(len(locals[i].sample))
		locals[i].sample = nil
	}
	for i := range meta.samples {
		sampleElems += int64(len(meta.samples[i].Vals))
		meta.samples[i].Vals = nil
	}
	n.Mem.Release(sampleElems)
}

// OpenSources opens the streaming input of every locally hosted rank
// up front (all P ranks when machine is nil, i.e. before a sim machine
// exists), so the per-rank element counts can drive the same
// sample/capacity sizing the slice lengths do; the readers themselves
// are only consumed inside the load phase. Shared by the canonical and
// striped sorters — the single place the Source contract is enforced.
func OpenSources(source func(rank int) (io.Reader, int64, error), machine cluster.Machine, p int) (map[int]io.Reader, map[int]int64, error) {
	readers := make(map[int]io.Reader)
	counts := make(map[int]int64)
	if source == nil {
		return readers, counts, nil
	}
	localRanks := make([]int, 0, p)
	if machine != nil {
		for _, node := range machine.Nodes() {
			localRanks = append(localRanks, node.Rank)
		}
	} else {
		for rank := 0; rank < p; rank++ {
			localRanks = append(localRanks, rank)
		}
	}
	for _, rank := range localRanks {
		r, cnt, err := source(rank)
		if err != nil {
			return nil, nil, fmt.Errorf("input source, rank %d: %w", rank, err)
		}
		if cnt < 0 {
			return nil, nil, fmt.Errorf("input source, rank %d: negative count %d", rank, cnt)
		}
		readers[rank] = r
		counts[rank] = cnt
	}
	return readers, counts, nil
}

// Sort runs CANONICALMERGESORT on the simulated cluster: input[i] is
// loaded onto PE i's local disks, and afterwards PE i holds the
// elements of global ranks (i·N/P, (i+1)·N/P] sorted on its local
// disks. The returned Result carries the per-phase measurements.
func Sort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	d, err := cfg.derive(c.Size())
	if err != nil {
		return nil, err
	}
	if cfg.Source == nil && len(input) != cfg.P {
		return nil, fmt.Errorf("core: input has %d PE slices, machine has %d PEs", len(input), cfg.P)
	}
	if cfg.Source != nil && input != nil {
		return nil, fmt.Errorf("core: Source and input slices are mutually exclusive")
	}
	if cfg.RealWorkers <= 0 {
		cfg.RealWorkers = 1
	}
	if cfg.Model == (vtime.CostModel{}) {
		cfg.Model = vtime.Default()
	}
	sources, sourceN, err := OpenSources(cfg.Source, cfg.Machine, cfg.P)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
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
	if cfg.SampleK == 0 && cfg.MemElems > 0 {
		// Auto-size the sampling distance so the in-memory sample
		// (N/K elements on every PE) fits its budget share: K = B
		// when possible, coarser for large machines (the footnote-12
		// pressure).
		runs := (nPerPE + d.runLocal - 1) / d.runLocal
		if runs < 1 {
			runs = 1
		}
		k := int64(d.bElem)
		sample := func(k int64) int64 {
			return runs * ((d.runLocal*int64(cfg.P) + k - 1) / k)
		}
		for sample(k) > cfg.MemElems/8 {
			k = k*5/4 + 1
		}
		cfg.SampleK = k
		d.sampleK = k
	}
	if err := cfg.CheckCapacity(c.Size(), nPerPE); err != nil {
		return nil, err
	}
	if cfg.Checkpoint.Dir != "" && cfg.Checkpoint.JobID == "" {
		cfg.Checkpoint.JobID = "job"
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
		return nil, fmt.Errorf("core: machine has %d PEs, config says %d", m.P(), cfg.P)
	}

	res := &Result[T]{
		P:          cfg.P,
		ElemSize:   c.Size(),
		BlockElems: d.bElem,
		PhaseNames: Phases(),
		PerPE:      make([]map[string]*vtime.PhaseStats, cfg.P),
		OutputLens: make([]int64, cfg.P),
	}
	if cfg.KeepOutput {
		res.Output = make([][]T, cfg.P)
	}
	res.PeakMemElems = make([]int64, cfg.P)
	res.PeakDiskBlocks = make([]int64, cfg.P)
	res.EndMemElems = make([]int64, cfg.P)
	res.LoadPeakMemElems = make([]int64, cfg.P)
	res.RunFormPeakMemElems = make([]int64, cfg.P)
	runsSeen := make([]int, cfg.P)
	subOps := make([]int, cfg.P)
	totalN := make([]int64, cfg.P)

	err = m.Run(func(n *cluster.Node) error {
		n.SetPhase(PhaseLoad)

		// Resume negotiation: each rank reads its own committed phase,
		// and the fleet agrees on the minimum with one collective — a
		// rank whose commit raced ahead of the crash downgrades, a rank
		// with no manifest downgrades everyone to a fresh start. A
		// fresh durable run instead clears any stale manifest so a
		// crash before the first commit cannot adopt a dead
		// incarnation's checkpoint.
		durable := cfg.Checkpoint.Dir != ""
		var man *blockio.Manifest
		resumeLvl := ckptNone
		if durable {
			if cfg.Checkpoint.Resume {
				var lvl int64
				var err error
				man, lvl, err = loadCkpt(cfg.Checkpoint, n.Rank, cfg.P, c.Size(), cfg.BlockBytes)
				if err != nil {
					return err
				}
				resumeLvl = n.AllReduceInt64(lvl, "min")
				if resumeLvl < ckptRunform {
					man = nil
				}
			} else if err := blockio.RemoveManifest(cfg.Checkpoint.Dir, n.Rank); err != nil {
				return fmt.Errorf("core: clearing stale manifest, rank %d: %w", n.Rank, err)
			}
		}

		var locals []localRun[T]
		var meta *runsMeta[T]
		if resumeLvl >= ckptRunform {
			// The runs are already on disk: rebuild the directory from
			// the manifest without touching the input source.
			var err error
			locals, meta, err = restoreRunform(c, n, d, man)
			if err != nil {
				return err
			}
			res.LoadPeakMemElems[n.Rank] = n.Mem.Peak()
			n.Barrier()
			n.Vol.ResetPeak()
		} else {
			// Load the input onto the local disks (outside the measured
			// sort: the paper's inputs pre-exist on disk). A Source streams
			// the encoded tile block-at-a-time straight onto the volume —
			// the only load-phase memory is the staging blocks it charges.
			var in File
			if cfg.Source != nil {
				stage := blockio.FillStages * int64(d.bElem)
				n.Mem.MustAcquire(stage)
				var err error
				in, err = loadStream(c, n.Vol, sources[n.Rank], sourceN[n.Rank])
				n.Mem.Release(stage)
				if err != nil {
					return fmt.Errorf("core: input source, rank %d: %w", n.Rank, err)
				}
			} else {
				lw := newWriter(c, n.Vol)
				lw.addSlice(input[n.Rank])
				in = lw.finish()
			}
			n.Vol.Drain()
			res.LoadPeakMemElems[n.Rank] = n.Mem.Peak()
			n.Barrier()
			n.Vol.ResetPeak()

			var err error
			locals, err = runFormation(c, n, &cfg, d, in)
			if err != nil {
				return err
			}
			res.RunFormPeakMemElems[n.Rank] = n.Mem.Peak()
			meta = gatherRunsMeta(c, n, d, locals)
			if durable {
				man, err = commitRunform(c, n, &cfg, d, meta, locals)
				if err != nil {
					return err
				}
				// No rank enters selection until every rank's commit is
				// on disk — without this, a crash early in selection can
				// abort a straggler mid-commit and downgrade the whole
				// fleet's resume to a full re-read.
				n.Barrier()
			}
		}
		runsSeen[n.Rank] = len(locals)

		var split [][]int64
		if resumeLvl >= ckptSelection {
			// The splitter matrix is identical on every rank and tiny —
			// reuse the committed copy instead of re-running selection.
			split = man.Splitters
		} else {
			var err error
			split, err = multiwaySelection(c, n, &cfg, d, meta, locals)
			if err != nil {
				return err
			}
			if durable {
				if err := commitSelection(&cfg, n, man, split); err != nil {
					return err
				}
				// Same fencing as the run-formation commit: a crash in
				// the exchange must find every selection commit durable.
				n.Barrier()
			}
		}
		releaseSamples(n, meta, locals)

		pieces, k, err := exchange(c, n, &cfg, d, meta, locals, split)
		if err != nil {
			return err
		}
		subOps[n.Rank] = k

		out, err := mergeLocal(c, n, &cfg, d, pieces)
		if err != nil {
			return err
		}

		// Post-sort bookkeeping, outside the measured phases.
		n.SetPhase("collect")
		totalN[n.Rank] = n.AllReduceInt64(out.N, "sum")
		res.OutputLens[n.Rank] = out.N
		if cfg.KeepOutput || cfg.Sink != nil {
			// One pass over the store feeds both consumers: the Sink
			// gets each encoded extent, KeepOutput decodes the same
			// buffer — the output is never read twice.
			var kept []T
			if cfg.KeepOutput {
				kept = make([]T, 0, out.N)
			}
			err := streamRaw(c, n.Vol, out, cfg.Overlap, func(b []byte) error {
				if cfg.KeepOutput {
					kept = elem.AppendDecode(c, kept, b, len(b)/c.Size())
				}
				if cfg.Sink != nil {
					return cfg.Sink(n.Rank, b)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("core: output sink, rank %d: %w", n.Rank, err)
			}
			if cfg.KeepOutput {
				res.Output[n.Rank] = kept
			}
		}
		res.PeakMemElems[n.Rank] = n.Mem.Peak()
		res.PeakDiskBlocks[n.Rank] = n.Vol.PeakUsed()
		res.EndMemElems[n.Rank] = n.Mem.Used()
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
	res.N = totalN[local0]
	res.Runs = runsSeen[local0]
	res.SubOps = subOps[local0]
	return res, nil
}
