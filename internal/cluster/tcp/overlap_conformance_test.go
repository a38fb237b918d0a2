package tcp_test

// Overlap conformance: Overlap only switches the modelled clock
// between pipelined and lock-step schedules and the A2AStream window
// of the all-to-all and the striped collect. With it on or off, the
// per-rank output streams must be byte-identical on the sim backend
// and on real tcp machines alike, and every phase must do the same
// real I/O and traffic on either backend. The overlap-off sim run is
// the reference every stream diffs against.

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster/tcp"
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/sortbench"
	"demsort/internal/vtime"
)

// phaseCounters are one rank's per-phase I/O and traffic counters:
// BytesRead, BytesWritten, BlocksRead, BlocksWritten, BytesSent.
type phaseCounters map[string][5]int64

func countersOf(stats map[string]*vtime.PhaseStats) phaseCounters {
	pc := phaseCounters{}
	for ph, st := range stats {
		pc[ph] = [5]int64{st.BytesRead, st.BytesWritten, st.BlocksRead, st.BlocksWritten, st.BytesSent}
	}
	return pc
}

// checkSameWork fails when a phase of some rank did different real
// work with Overlap on than with it off.
func checkSameWork(t *testing.T, backend string, off, on []phaseCounters) {
	t.Helper()
	for rank := range off {
		if !reflect.DeepEqual(off[rank], on[rank]) {
			t.Fatalf("%s rank %d: Overlap changed the per-phase I/O or traffic:\noff %v\non  %v", backend, rank, off[rank], on[rank])
		}
	}
}

// sortSimStream runs the Source/Sink-fed canonical workload on the sim
// backend and returns the per-rank Sink streams and phase counters.
func sortSimStream(t *testing.T, p int, overlap bool) ([][]byte, []phaseCounters) {
	t.Helper()
	cfg := confConfig(p)
	cfg.KeepOutput = false
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
	res, err := core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]phaseCounters, p)
	for rank, stats := range res.PerPE {
		work[rank] = countersOf(stats)
	}
	return out, work
}

// sortTCPStream is sortSimStream on p tcp machines.
func sortTCPStream(t *testing.T, p int, newStore func(rank int) (blockio.Store, error), overlap bool) ([][]byte, []phaseCounters) {
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
			cfg := confConfig(p)
			cfg.KeepOutput = false
			cfg.Overlap = overlap
			cfg.Machine = m
			cfg.Source = confSource
			cfg.Sink = func(r int, b []byte) error {
				out[r] = append(out[r], b...)
				return nil
			}
			res, err := core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
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

// TestOverlapConformance pins Overlap on ≡ off for the canonical sort
// across P ∈ {2, 4, 8}, RAM and file stores, sim and tcp backends.
func TestOverlapConformance(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, store := range []string{"ram", "file"} {
			t.Run(fmt.Sprintf("P%d_%s", p, store), func(t *testing.T) {
				var newStore func(rank int) (blockio.Store, error)
				if store == "file" {
					newStore = blockio.FileStoreFactory(t.TempDir(), confBlock)
				}
				ref, simOffWork := sortSimStream(t, p, false)
				simOn, simOnWork := sortSimStream(t, p, true)
				tcpOff, tcpOffWork := sortTCPStream(t, p, newStore, false)
				tcpOn, tcpOnWork := sortTCPStream(t, p, newStore, true)
				checkStreams(t, ref, []namedStream{{"sim overlap on", simOn}, {"tcp overlap off", tcpOff}, {"tcp overlap on", tcpOn}})
				checkSameWork(t, "sim", simOffWork, simOnWork)
				checkSameWork(t, "tcp", tcpOffWork, tcpOnWork)
				var sums []sortbench.Summary
				for _, part := range decodeParts(ref) {
					sums = append(sums, sortbench.Validate(part))
				}
				all := sortbench.Merge(sums)
				if all.Unsorted != 0 || all.Records != int64(p)*confNPer {
					t.Fatalf("reference output invalid: %d inversions, %d records", all.Unsorted, all.Records)
				}
			})
		}
	}
}

// TestOverlapStripedConformance pins Overlap on ≡ off for the striped
// sort's windowed collect and its load on both backends.
func TestOverlapStripedConformance(t *testing.T) {
	const p = 4
	for _, store := range []string{"ram", "file"} {
		t.Run(store, func(t *testing.T) {
			var newStore func(rank int) (blockio.Store, error)
			if store == "file" {
				newStore = blockio.FileStoreFactory(t.TempDir(), confBlock)
			}
			ref, simOffWork := sortStripedSim(t, p, false)
			simOn, simOnWork := sortStripedSim(t, p, true)
			tcpOff, tcpOffWork := sortStripedTCP(t, p, newStore, false)
			tcpOn, tcpOnWork := sortStripedTCP(t, p, newStore, true)
			checkStreams(t, ref, []namedStream{{"sim overlap on", simOn}, {"tcp overlap off", tcpOff}, {"tcp overlap on", tcpOn}})
			checkSameWork(t, "sim", simOffWork, simOnWork)
			checkSameWork(t, "tcp", tcpOffWork, tcpOnWork)
		})
	}
}

// namedStream is one run's per-rank Sink streams.
type namedStream struct {
	name string
	out  [][]byte
}

// checkStreams fails unless every run's per-rank streams equal the
// overlap-off sim reference.
func checkStreams(t *testing.T, ref [][]byte, runs []namedStream) {
	t.Helper()
	for _, run := range runs {
		for rank := range ref {
			if !bytes.Equal(ref[rank], run.out[rank]) {
				t.Fatalf("rank %d: %s stream differs from the overlap-off sim run (%d vs %d bytes)",
					rank, run.name, len(run.out[rank]), len(ref[rank]))
			}
		}
	}
}
