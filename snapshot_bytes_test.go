package usp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// pinnedSnapshot is one index whose snapshot bytes testdata/snapshot_sha256.json
// pins: built in-process with fixed seeds, then taken through Add, Compact,
// more Adds and Deletes, so the file carries compacted tables, pending tails
// and tombstones.
type pinnedSnapshot struct {
	name  string
	seed  int64
	n     int
	opt   Options
	shard bool // also pin the second of a 2-way Shard
}

var pinnedSnapshots = []pinnedSnapshot{
	{name: "hierarchy", seed: 401, n: 400, opt: Options{
		Hierarchy: []int{4, 4}, Epochs: 6, Hidden: []int{8}, Seed: 402, CompactAfter: -1,
		Quantize: Quantization{Enabled: true, Subspaces: 4, K: 16, Iters: 4},
	}},
	{name: "flat-hierarchy", seed: 411, n: 300, opt: Options{
		Hierarchy: []int{4}, Epochs: 6, Hidden: []int{8}, Seed: 412, CompactAfter: -1,
	}},
	{name: "ensemble", seed: 421, n: 300, shard: true, opt: Options{
		Bins: 4, Ensemble: 2, Epochs: 6, Hidden: []int{8}, Seed: 422, CompactAfter: -1,
	}},
}

// snapshotSum returns the hex sha256 of ix's snapshot.
func snapshotSum(t *testing.T, ix *Index) string {
	t.Helper()
	h := sha256.New()
	if err := ix.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedSums builds tc's index and returns its snapshot sums by name.
func pinnedSums(t *testing.T, tc pinnedSnapshot) map[string]string {
	vecs, _ := clusteredVectors(tc.seed, tc.n, 8, 4)
	ix, err := Build(vecs, tc.opt)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, ix, vecs, 12, 0, tc.seed+1)
	ix.Compact()
	churn(t, ix, vecs, 8, 6, tc.seed+2)
	sums := map[string]string{tc.name: snapshotSum(t, ix)}
	if tc.shard {
		shards, err := ix.Shard(2)
		if err != nil {
			t.Fatal(err)
		}
		sums[tc.name+"/shard1"] = snapshotSum(t, shards[1])
	}
	return sums
}

const pinnedChildEnv = "USP_PINNED_SNAPSHOT"

// TestSnapshotBytesPinned: the snapshots of a quantized [4,4] hierarchy, a
// one-level hierarchy and a 2-member ensemble (and one of its shards) hash
// to the values recorded per kernel set in testdata/snapshot_sha256.json,
// which were recorded at commit c89c4fb. Training, routing, table surgery
// and the writer must all reproduce the recorded bytes; a change to any of
// them that is meant to be bit-identical is checked by this test under both
// dispatches.
//
// Each index is built and saved in a fresh process (this test binary,
// re-run with pinnedChildEnv naming the case): the gob sections' type ids
// are numbered in the order a process first encodes each type, so the bytes
// of a snapshot depend on what the process saved or loaded before it.
func TestSnapshotBytesPinned(t *testing.T) {
	if name := os.Getenv(pinnedChildEnv); name != "" {
		for _, tc := range pinnedSnapshots {
			if tc.name == name {
				for k, sum := range pinnedSums(t, tc) {
					fmt.Printf("pinned %s %s\n", k, sum)
				}
			}
		}
		return
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot_sha256.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string // name → kernel set → sum
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range pinnedSnapshots {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestSnapshotBytesPinned$", "-test.count=1")
			cmd.Env = append(os.Environ(), pinnedChildEnv+"="+tc.name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child: %v\n%s", err, out)
			}
			got := map[string]string{}
			for _, line := range strings.Split(string(out), "\n") {
				if f := strings.Fields(line); len(f) == 3 && f[0] == "pinned" {
					got[f[1]] = f[2]
				}
			}
			if len(got) == 0 {
				t.Fatalf("child printed no sums:\n%s", out)
			}
			var missing []string
			for _, name := range slices.Sorted(maps.Keys(got)) {
				w, ok := want[name][vecmath.Impl()]
				switch {
				case !ok:
					missing = append(missing, name+" "+got[name])
				case got[name] != w:
					t.Errorf("%s snapshot sha256 %s, recorded %s", name, got[name], w)
				}
			}
			if missing != nil {
				t.Skipf("no sums recorded for the %s kernels; this run's: %v", vecmath.Impl(), missing)
			}
		})
	}
}
