package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"demsort/internal/cluster/tcp"
	"demsort/internal/sortbench"
)

// jobTimeout bounds one fleet job; a job past it is killed and counts
// as failed.
const jobTimeout = 60 * time.Second

// job is one measured sort: a fresh fleet of worker processes over the
// same input.
type job struct {
	wallS     float64 // first spawn → last worker exit, parts published
	setupS    float64 // first spawn → slowest rank's tcp.New return
	cpuS      float64 // user+sys of all workers (wait4 rusage)
	peakRSSMB float64 // max RSS over the workers
	reports   []workerReport
	digest    [sha256.Size]byte // SHA-256 of the part files in rank order
}

// bench holds one run's set-up: the workload, its input and where the
// fleets work.
type bench struct {
	w        workload
	exe      string // the worker entry (this binary)
	dir      string
	input    string
	inputSum sortbench.Summary
}

func (b *bench) outDir() string  { return filepath.Join(b.dir, "out") }
func (b *bench) workDir() string { return filepath.Join(b.dir, "work") }

// runJob runs one fleet to completion and validates its output. Any
// failure — a non-zero exit, the timeout, a validation mismatch — is
// returned as an error; errValidation marks the last kind.
func (b *bench) runJob(traced bool) (*job, error) {
	for _, d := range []string{b.outDir(), b.workDir()} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	peers := make([]string, b.w.ranks)
	if b.w.ranks > 1 {
		var err error
		if peers, err = tcp.ReservePorts(b.w.ranks); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()

	cmds := make([]*exec.Cmd, b.w.ranks)
	stdout := make([]*bytes.Buffer, b.w.ranks)
	stderr := make([]*bytes.Buffer, b.w.ranks)
	start := time.Now()
	for r := range cmds {
		spec, err := json.Marshal(jobSpec{
			Rank: r, Peers: peers, Striped: b.w.striped, Store: b.w.store,
			Block: b.w.block, Mem: b.w.mem, NPer: b.w.nPer(), Randomize: b.w.randomize,
			Input: b.input, OutDir: b.outDir(), WorkDir: b.workDir(), Trace: traced,
		})
		if err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, b.exe, "worker", string(spec))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.w.procs))
		stdout[r], stderr[r] = &bytes.Buffer{}, &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = stdout[r], stderr[r]
		if err := cmd.Start(); err != nil {
			cancel()
			waitAll(cmds[:r])
			return nil, err
		}
		cmds[r] = cmd
	}

	// Wait for every worker; the first failure kills the rest, so a
	// dead rank cannot leave its peers waiting out their timeouts.
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, len(cmds))
	for r, cmd := range cmds {
		go func() { exits <- exit{r, cmd.Wait()} }()
	}
	var firstErr error
	for range cmds {
		e := <-exits
		if e.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %v: %s", e.rank, e.err, bytes.TrimSpace(stderr[e.rank].Bytes()))
			cancel()
		}
	}
	wall := time.Since(start)
	if ctx.Err() == context.DeadlineExceeded {
		firstErr = fmt.Errorf("job timed out after %v", jobTimeout)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	j := &job{wallS: wall.Seconds()}
	var ready int64
	for r, cmd := range cmds {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no rusage for worker")
		}
		j.cpuS += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		j.peakRSSMB = max(j.peakRSSMB, float64(ru.Maxrss)*1024/1e6)
		var rep workerReport
		if err := json.Unmarshal(stdout[r].Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("rank %d report: %w", r, err)
		}
		ready = max(ready, rep.ReadyUnixNs)
		j.reports = append(j.reports, rep)
	}
	j.setupS = float64(ready-start.UnixNano()) / 1e9
	if err := b.validate(j); err != nil {
		return nil, err
	}
	return j, nil
}

func waitAll(cmds []*exec.Cmd) {
	for _, c := range cmds {
		c.Wait()
	}
}

// errValidation marks a job whose output failed validation.
var errValidation = errors.New("output validation failed")

// validate valsorts the part files in rank order — record count,
// unsorted = 0, checksum equal to the input's — and digests their bytes.
func (b *bench) validate(j *job) error {
	h := sha256.New()
	var sums []sortbench.Summary
	for r := 0; r < b.w.ranks; r++ {
		f, err := os.Open(filepath.Join(b.outDir(), fmt.Sprintf("part-%03d", r)))
		if err != nil {
			return fmt.Errorf("%w: %v", errValidation, err)
		}
		s, err := sortbench.SummarizeReader(io.TeeReader(bufio.NewReaderSize(f, 1<<20), h))
		f.Close()
		if err != nil {
			return fmt.Errorf("%w: part %d: %v", errValidation, r, err)
		}
		sums = append(sums, s)
	}
	got := sortbench.Merge(sums)
	if got.Records != b.inputSum.Records || got.Unsorted != 0 || got.Checksum != b.inputSum.Checksum {
		return fmt.Errorf("%w: records=%d/%d unsorted=%d checksum=%016x/%016x", errValidation,
			got.Records, b.inputSum.Records, got.Unsorted, got.Checksum, b.inputSum.Checksum)
	}
	h.Sum(j.digest[:0])
	return nil
}
