package rtpb_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestLineCeiling holds every package's non-test Go lines at or under
// its entry in line-ceiling.txt (ROADMAP aim 2), so the count cannot
// drift up unnoticed: a package over its ceiling, or one with no entry,
// fails. -v prints the table. Lower an entry when a package shrinks.
func TestLineCeiling(t *testing.T) {
	data, err := os.ReadFile("line-ceiling.txt")
	if err != nil {
		t.Fatal(err)
	}
	ceiling := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		n, err := strconv.Atoi(f[len(f)-1])
		if len(f) != 2 || err != nil {
			t.Fatalf("line-ceiling.txt: %q is not \"<package dir> <lines>\"", line)
		}
		ceiling[f[0]] = n
	}
	lines := map[string]int{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		lines[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(lines))
	for p := range lines {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	total := 0
	for _, p := range pkgs {
		n, c := lines[p], ceiling[p]
		total += n
		t.Logf("%-26s %6d / %6d", p, n, c)
		if c == 0 {
			t.Errorf("%s: %d lines and no entry in line-ceiling.txt", p, n)
		} else if n > c {
			t.Errorf("%s: %d lines, over its ceiling of %d", p, n, c)
		}
	}
	t.Logf("%-26s %6d", "total", total)
	for p := range ceiling {
		if _, ok := lines[p]; !ok {
			t.Errorf("line-ceiling.txt: %s has no non-test Go files; drop its entry", p)
		}
	}
}
