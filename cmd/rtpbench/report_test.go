package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

const reportPath = "../../BENCH_rtpb.json"

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readBlocks reads a report file as its top-level blocks, each compacted.
func readBlocks(t *testing.T, path string) map[string][]byte {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(readFile(t, path), &raw); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	blocks := make(map[string][]byte, len(raw))
	for name, msg := range raw {
		var buf bytes.Buffer
		if err := json.Compact(&buf, msg); err != nil {
			t.Fatal(err)
		}
		blocks[name] = buf.Bytes()
	}
	return blocks
}

// regenerate writes a full report at the checked-in file's seed into a
// temporary directory and returns its path.
func regenerate(t *testing.T) string {
	t.Helper()
	var hdr struct {
		Seed int64 `json:"seed"`
	}
	if err := json.Unmarshal(readFile(t, reportPath), &hdr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := runReport(path, hdr.Seed, 0); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestModelReportReplays reruns every sweep at the checked-in model
// report's seed, each at its default interval (the points block's is the
// file's duration_ms), and requires the same bytes: the report is
// virtual-clock output, so a change that moves one of its numbers has to
// regenerate the file and say why.
func TestModelReportReplays(t *testing.T) {
	path := regenerate(t)
	got, want := readBlocks(t, path), readBlocks(t, reportPath)
	for name, block := range want {
		if !bytes.Equal(got[name], block) {
			t.Errorf("%s block does not replay:\n got %s\nwant %s", name, got[name], block)
		}
	}
	if !t.Failed() && !bytes.Equal(readFile(t, path), readFile(t, reportPath)) {
		t.Errorf("BENCH_rtpb.json replays block for block but not byte for byte; regenerate it with rtpbench -json")
	}
}

// TestModelReportHasEveryBlock holds the report to its blocks: a full
// -json run writes exactly these, and the checked-in file has each of
// them, so regenerating the report cannot drop a sweep unnoticed.
func TestModelReportHasEveryBlock(t *testing.T) {
	want := []string{"clocksync", "duration_ms", "gateway", "kind", "observers", "points", "rejoin", "seed", "shard"}
	for _, path := range []string{regenerate(t), reportPath} {
		var keys []string
		for k := range readBlocks(t, path) {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("%s: blocks %v, want %v", filepath.Base(path), keys, want)
		}
	}
	if kind := readBlocks(t, reportPath)["kind"]; string(kind) != `"model"` {
		t.Errorf("kind = %s, want \"model\"", kind)
	}
}
