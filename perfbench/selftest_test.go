package main

// The benchmark's self-test: on every workload, a traced job, an
// untraced job and `demsort -transport=tcp` given the same input file
// and configuration write byte-identical part files, and the traced job
// takes the untraced job's code paths. Run it from this directory with
// `go test ./...`.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

func TestMain(m *testing.M) {
	// The fleets spawn this test binary as their worker entry.
	if len(os.Args) == 3 && os.Args[1] == "worker" {
		if err := runWorker(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTracedUntracedAndCLIOutputsIdentical(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cli := filepath.Join(t.TempDir(), "demsort")
	if out, err := exec.Command("go", "build", "-o", cli, "demsort/cmd/demsort").CombinedOutput(); err != nil {
		t.Fatalf("building the demsort CLI: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var err error
			dir := t.TempDir()
			b := &bench{w: w, exe: exe, dir: filepath.Join(dir, "fleet"), input: filepath.Join(dir, "input")}
			if b.inputSum, err = writeInput(w, 7, b.input); err != nil {
				t.Fatal(err)
			}
			plain, err := b.runJob(false)
			if err != nil {
				t.Fatalf("untraced job: %v", err)
			}
			traced, err := b.runJob(true)
			if err != nil {
				t.Fatalf("traced job: %v", err)
			}
			if traced.digest != plain.digest {
				t.Errorf("traced output differs from untraced output")
			}
			checkSamePath(t, w, plain, traced)

			cliOut := filepath.Join(dir, "cli")
			args := []string{"-transport=tcp", "-p", strconv.Itoa(w.ranks),
				"-n", strconv.FormatInt(w.nPer(), 10), "-mem", strconv.FormatInt(w.mem, 10),
				"-block", strconv.Itoa(w.block), "-store", w.store,
				"-randomize=" + strconv.FormatBool(w.randomize), "-striped=" + strconv.FormatBool(w.striped),
				"-seed", "1", "-infile", b.input, "-outdir", cliOut}
			if out, err := exec.Command(cli, args...).CombinedOutput(); err != nil {
				t.Fatalf("demsort %v: %v\n%s", args, err, out)
			}
			if got := digestParts(t, cliOut, w.ranks); got != plain.digest {
				t.Errorf("demsort CLI output differs from the benchmark's")
			}
		})
	}
}

// streamingWorkloads are the workloads whose exchange runs through the
// pipelined A2AStream.
var streamingWorkloads = map[string]bool{"canon-worstcase-tight": true, "striped-ram": true}

// checkSamePath fails t unless the traced job took the untraced job's
// code paths. Equal bytes alone cannot show that, as any correct sort
// writes the same output. The backend's per-phase byte, block and
// message counts must match rank by rank, and the wrappers' own
// counters must show the paths that only a forwarded interface reaches:
// the bulk codec calls (BulkCodec, BulkKeyer) everywhere, and the
// pipelined stream (StreamingTransport) where the exchange streams.
// Without the forwarding the calls fall through to the embedded
// untimed methods, or to the synchronous AllToAllv adapter.
func checkSamePath(t *testing.T, w workload, plain, traced *job) {
	t.Helper()
	for r := range plain.reports {
		pc, tc := plain.reports[r].Counts, traced.reports[r].Counts
		if len(pc) == 0 {
			t.Fatalf("rank %d reported no phase counts", r)
		}
		if !maps.Equal(pc, tc) {
			t.Errorf("rank %d: phase counts differ\nuntraced %v\ntraced   %v", r, pc, tc)
		}
	}
	must := []string{"elem.decode_bytes", "elem.encode_bytes", "elem.keys_s", "store.ops"}
	if streamingWorkloads[w.name] {
		must = append(must, "tcp.stream_bytes")
	}
	for _, name := range must {
		var sum float64
		for _, rep := range traced.reports {
			sum += rep.Counters[name]
		}
		if sum <= 0 {
			t.Errorf("traced job: %s = 0, so its wrapped path was not taken", name)
		}
	}
}

// digestParts is the SHA-256 of dir's part files in rank order.
func digestParts(t *testing.T, dir string, ranks int) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for r := range ranks {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("part-%03d", r)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
