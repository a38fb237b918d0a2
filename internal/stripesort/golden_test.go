package stripesort

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/sortbench"
	"demsort/internal/vtime"
	"demsort/internal/workload"
)

// goldenDigests pins the exact striped output bytes — tie order
// included — of duplicate-heavy inputs at P ∈ {1, 2, 4}. Any correct
// sort yields the same keys in the same order; only the order of
// equal-key elements (KV16 values, Rec100 payloads behind a shared
// 10-byte key) can drift, and it must not: the striped data plane
// resolves ties by (run, position) and every refactor of it has to
// keep that. The digests are SHA-256 over the encoded Result.Output.
var goldenDigests = map[string]string{
	"kv16/allequal/p1":  "4b5e1c0caaab49dcabb0e41377148f99c741acf5302aa737bd74ed4c8e5d3402",
	"kv16/hotkey/p1":    "09a9fe7d58d2a02b1ba0155325825a5a7af727f37044a105ca0d5aecf1c78f88",
	"kv16/worstcase/p1": "62e11c62e30e9082cea88c4fc1e8b65af7522f67938331bb813893fb7df1903a",
	"rec100/skewed/p1":  "82e03f322a517a85ced6c78183613981b2a118d8bd27304bb29b1bb464168665",
	"kv16/allequal/p2":  "cfc64cf40384ecf657482ebc9b10a3f6f24c686017e7aa88f07060e2f0ef2316",
	"kv16/hotkey/p2":    "6306443d1eced32d2153a2b4ec9e4be04c7e153a1c47d72074ecab31e9314e75",
	"kv16/worstcase/p2": "4ed7f5f1ec8d2a63a195353cd58de9b47063c7cf15fc6ec0aceeb5c11785fb88",
	"rec100/skewed/p2":  "7aa6b630b026b933545b95898c8ee0534b9fae3ce7016b15f2cb83e9c4cfc133",
	"kv16/allequal/p4":  "393272c7e2374a5b3bd9812f351e0ab25abb72c4712730dc1d46007abfabf151",
	"kv16/hotkey/p4":    "3ecd1a045d6a761c18ced973ead138375cf0a4f3ed8a7d047ae21228189faf2b",
	"kv16/worstcase/p4": "386830c37ade434afebd545c0443a9f4c15419b66ffd7b8f82066df02a9a09f3",
	"rec100/skewed/p4":  "bed6a2c97f1d212754056b732938bf2921966972f34a1cf38fdcde176cb87da9",
}

// stripedDigest sorts input with RealWorkers pinned to 1, so the digest
// does not depend on the host's core count, and returns the hex SHA-256
// of the encoded output.
func stripedDigest[T any](t *testing.T, c elem.Codec[T], cfg Config, input [][]T) string {
	t.Helper()
	cfg.RealWorkers = 1
	cfg.KeepOutput = true
	res, err := Sort(c, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if !elem.IsSorted(c, res.Output) {
		t.Fatal("striped output not sorted")
	}
	if res.Runs < 2 || res.Batches < 2 {
		t.Fatalf("expected the external regime, got R=%d batches=%d", res.Runs, res.Batches)
	}
	sum := sha256.Sum256(elem.EncodeSlice(c, res.Output))
	return hex.EncodeToString(sum[:])
}

func TestStripedGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, p := range []int{1, 2, 4} {
		for _, kind := range []workload.Kind{workload.AllEqual, workload.HotKey, workload.WorstCaseLocal} {
			input := workload.Generate(kind, p, 5200, 91)
			got[fmt.Sprintf("kv16/%s/p%d", kind, p)] = stripedDigest[elem.KV16](t, kvc, testConfig(p), input)
		}
		const nPer = 4000
		input := make([][]elem.Rec100, p)
		for rank := range input {
			input[rank] = sortbench.Skewed(5, int64(rank)*nPer, nPer, 8)
		}
		cfg := DefaultConfig(p, 1<<13, 10*100)
		cfg.Model = vtime.Default()
		got[fmt.Sprintf("rec100/skewed/p%d", p)] = stripedDigest[elem.Rec100](t, elem.Rec100Codec{}, cfg, input)
	}
	for name, sum := range got {
		if want, ok := goldenDigests[name]; !ok {
			t.Errorf("%s: no golden digest (got %q)", name, sum)
		} else if sum != want {
			t.Errorf("%s: output digest %s, golden %s", name, sum, want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("%d digests computed, %d golden", len(got), len(goldenDigests))
	}
}
