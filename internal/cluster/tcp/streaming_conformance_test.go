package tcp_test

// Streaming-boundary conformance: the striped sort's Sink-routed
// output and the canonical sort's Source-fed input must behave
// identically on the sim backend and on real tcp machines — and a
// Source or Sink failure on one rank must abort the whole fleet in
// bounded time instead of wedging it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster/tcp"
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/sortbench"
	"demsort/internal/stripesort"
	"demsort/internal/vtime"
)

func stripedConfConfig(p int) stripesort.Config {
	cfg := stripesort.DefaultConfig(p, confMem, confBlock)
	cfg.Seed = confSeed
	model := vtime.Default()
	model.DiskJitter = 0
	cfg.Model = model
	return cfg
}

func confSource(rank int) (io.Reader, int64, error) {
	return sortbench.NewReader(confSeed, int64(rank)*confNPer, confNPer), confNPer, nil
}

// sortStripedSim runs the striped workload on the sim backend and
// returns what each rank's Sink received (its contiguous share of the
// sorted output) and each rank's phase counters.
func sortStripedSim(t *testing.T, p int, overlap bool) ([][]byte, []phaseCounters) {
	t.Helper()
	cfg := stripedConfConfig(p)
	cfg.Overlap = overlap
	cfg.Source = confSource
	out := make([][]byte, p)
	var mu sync.Mutex
	cfg.Sink = func(rank int, b []byte) error {
		mu.Lock()
		out[rank] = append(out[rank], b...)
		mu.Unlock()
		return nil
	}
	res, err := stripesort.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]phaseCounters, p)
	for rank, stats := range res.PerPE {
		work[rank] = countersOf(stats)
	}
	return out, work
}

// sortStripedTCP runs the same striped workload on p tcp machines and
// returns the per-rank Sink streams and phase counters.
func sortStripedTCP(t *testing.T, p int, newStore func(rank int) (blockio.Store, error), overlap bool) ([][]byte, []phaseCounters) {
	t.Helper()
	peers := reservePorts(t, p)
	out := make([][]byte, p)
	work := make([]phaseCounters, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{
				Rank:           rank,
				Peers:          peers,
				BlockBytes:     confBlock,
				MemElems:       confMem,
				NewStore:       newStore,
				ConnectTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			cfg := stripedConfConfig(p)
			cfg.Overlap = overlap
			cfg.Machine = m
			cfg.Source = confSource
			cfg.Sink = func(r int, b []byte) error {
				out[r] = append(out[r], b...)
				return nil
			}
			res, err := stripesort.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
			if err != nil {
				errs[rank] = err
				return
			}
			work[rank] = countersOf(res.PerPE[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	return out, work
}

// TestSimTCPStripedConformance: the striped sort's per-rank output
// streams must be byte-identical between the sim backend and real tcp
// machines — the contract behind `demsort -striped -transport=tcp`
// part files diffing clean against the sim run.
func TestSimTCPStripedConformance(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, store := range []string{"ram", "file"} {
			t.Run(fmt.Sprintf("P%d_%s", p, store), func(t *testing.T) {
				var newStore func(rank int) (blockio.Store, error)
				if store == "file" {
					newStore = blockio.FileStoreFactory(t.TempDir(), confBlock)
				}
				simOut, _ := sortStripedSim(t, p, true)
				tcpOut, _ := sortStripedTCP(t, p, newStore, true)
				for rank := 0; rank < p; rank++ {
					if !bytes.Equal(simOut[rank], tcpOut[rank]) {
						t.Fatalf("rank %d: striped sim and tcp streams differ (%d vs %d bytes)",
							rank, len(simOut[rank]), len(tcpOut[rank]))
					}
				}
				var sums []sortbench.Summary
				for _, part := range decodeParts(tcpOut) {
					sums = append(sums, sortbench.Validate(part))
				}
				all := sortbench.Merge(sums)
				if all.Unsorted != 0 {
					t.Fatalf("striped tcp output not sorted: %d inversions", all.Unsorted)
				}
				if all.Records != int64(p)*confNPer {
					t.Fatalf("striped output carries %d records, want %d", all.Records, int64(p)*confNPer)
				}
			})
		}
	}
}

// TestSimTCPSourceConformance: Source-fed canonical input on tcp must
// be byte-identical to the slice-fed sim reference.
func TestSimTCPSourceConformance(t *testing.T) {
	const p = 4
	simOut := sortSim(t, p) // slice-fed reference
	peers := reservePorts(t, p)
	out := make([][]byte, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{
				Rank: rank, Peers: peers, BlockBytes: confBlock, MemElems: confMem,
				ConnectTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			cfg := confConfig(p)
			cfg.Machine = m
			cfg.KeepOutput = false
			cfg.Source = confSource
			cfg.Sink = func(r int, b []byte) error {
				out[r] = append(out[r], b...)
				return nil
			}
			if _, err := core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil); err != nil {
				errs[rank] = err
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	for rank := 0; rank < p; rank++ {
		if !bytes.Equal(simOut[rank], out[rank]) {
			t.Fatalf("rank %d: Source-fed tcp output differs from slice-fed sim", rank)
		}
	}
}

// limitedErrReader yields limit bytes, then a permanent error.
type limitedErrReader struct {
	r     io.Reader
	limit int64
	err   error
}

func (l *limitedErrReader) Read(p []byte) (int, error) {
	if l.limit <= 0 {
		return 0, l.err
	}
	if int64(len(p)) > l.limit {
		p = p[:l.limit]
	}
	n, err := l.r.Read(p)
	l.limit -= int64(n)
	return n, err
}

// TestStreamFaultAbortsFleetBounded injects a Source failure (one
// rank's input stream dies mid-load) and a Sink failure (one rank's
// output consumer rejects a write) into a 4-machine tcp fleet: the
// failing rank must surface the injected error and every rank must
// return — not hang — well inside the bound.
func TestStreamFaultAbortsFleetBounded(t *testing.T) {
	injected := errors.New("injected stream fault")
	const p = 4
	const faulty = 2
	for _, mode := range []string{"source", "sink"} {
		t.Run(mode, func(t *testing.T) {
			peers := reservePorts(t, p)
			errs := make([]error, p)
			done := make(chan struct{})
			var wg sync.WaitGroup
			start := time.Now()
			for rank := 0; rank < p; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					m, err := tcp.New(tcp.Config{
						Rank: rank, Peers: peers, BlockBytes: confBlock, MemElems: confMem,
						ConnectTimeout: 20 * time.Second,
					})
					if err != nil {
						errs[rank] = err
						return
					}
					defer m.Close()
					cfg := confConfig(p)
					cfg.Machine = m
					cfg.KeepOutput = false
					cfg.Source = func(r int) (io.Reader, int64, error) {
						src, n, _ := confSource(r)
						if mode == "source" && r == faulty {
							return &limitedErrReader{r: src, limit: 10 * confBlock, err: injected}, n, nil
						}
						return src, n, nil
					}
					cfg.Sink = func(r int, b []byte) error {
						if mode == "sink" && r == faulty {
							return injected
						}
						return nil
					}
					_, err = core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
					errs[rank] = err
				}(rank)
			}
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(45 * time.Second):
				t.Fatalf("fleet still running 45s after an injected %s fault", mode)
			}
			if elapsed := time.Since(start); elapsed > 40*time.Second {
				t.Fatalf("fleet took %v to unwind", elapsed)
			}
			if !errors.Is(errs[faulty], injected) {
				t.Fatalf("rank %d did not surface the injected error: %v", faulty, errs[faulty])
			}
			if mode == "source" {
				// A load-phase death strands every other rank at the
				// post-load barrier; each must have unwound with a
				// transport failure, not a hang.
				for rank := 0; rank < p; rank++ {
					if rank != faulty && errs[rank] == nil {
						t.Errorf("rank %d finished cleanly despite the dead fleet", rank)
					}
				}
			}
		})
	}
}
