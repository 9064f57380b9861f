package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
)

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no subcommand", nil, "usage"},
		{"unknown subcommand", []string{"-addr", "127.0.0.1:1", "frobnicate"}, "unknown subcommand"},
		{"register arity", []string{"-addr", "127.0.0.1:1", "register", "x"}, "usage: register"},
		{"write arity", []string{"-addr", "127.0.0.1:1", "write", "x"}, "usage: write"},
		{"read arity", []string{"-addr", "127.0.0.1:1", "read"}, "usage: read"},
		{"relate arity", []string{"-addr", "127.0.0.1:1", "relate", "a"}, "usage: relate"},
		{"bench arity", []string{"-addr", "127.0.0.1:1", "bench", "x"}, "usage: bench"},
		{"recruit arity", []string{"-addr", "127.0.0.1:1", "recruit"}, "usage: recruit"},
		{"repair arity", []string{"-addr", "127.0.0.1:1", "repair", "x"}, "usage: repair"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatal("expected an error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestUsageNamesEverySubcommand keeps the bare-rtpbctl usage error in
// step with the subcommand table.
func TestUsageNamesEverySubcommand(t *testing.T) {
	err := run(nil)
	if err == nil {
		t.Fatal("expected a usage error")
	}
	msg := err.Error()
	named := map[string]bool{}
	for _, name := range strings.Split(msg[strings.Index(msg, "<")+1:strings.Index(msg, ">")], "|") {
		named[name] = true
	}
	for name := range subcommands {
		if !named[name] {
			t.Errorf("usage %q does not name %q", msg, name)
		}
	}
}

func TestRunDialFailure(t *testing.T) {
	// Port 1 on localhost is almost certainly closed; Dial must fail
	// fast and surface the error.
	err := run([]string{"-addr", "127.0.0.1:1", "status"})
	if err == nil {
		t.Fatal("expected dial error")
	}
}

// stubServer answers the table verbs with canned replies in the real
// server's format, standing in for a replica's control server.
func stubServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					switch line := sc.Text(); {
					case line == "OBSERVERS":
						fmt.Fprintln(conn, "OK observers=1 depth=0 theta=0s | obs:7000 alive=true syncing=false")
					case line == "STATUS":
						fmt.Fprintln(conn, "OK role=primary objects=2 utilization=0.4800 epoch=3 backupAlive=true transitions=2")
					default:
						fmt.Fprintln(conn, "ERR unknown command")
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	r.Close()
	if ferr != nil {
		t.Fatalf("run: %v (output %q)", ferr, out)
	}
	return string(out)
}

func TestStatusTableRoundTrip(t *testing.T) {
	addr := stubServer(t)
	out := capture(t, func() error { return run([]string{"-addr", addr, "status"}) })
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"ROLE", "OBJECTS", "UTILIZATION", "EPOCH", "BACKUP", "TRANSITIONS"} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("header missing %q: %q", want, lines[0])
		}
	}
	row := strings.Fields(lines[1])
	if want := []string{"primary", "2", "0.4800", "3", "true", "2"}; !equalSlices(row, want) {
		t.Fatalf("status row = %v, want %v", row, want)
	}
}

func TestObserversTableRoundTrip(t *testing.T) {
	addr := stubServer(t)
	out := capture(t, func() error { return run([]string{"-addr", addr, "observers"}) })
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	want := [][]string{
		{"OBSERVERS", "DEPTH", "THETA"}, {"1", "0", "0s"},
		{"OBSERVER", "ALIVE", "SYNCING"}, {"obs:7000", "true", "false"},
	}
	if len(lines) != len(want) {
		t.Fatalf("want %d lines, got %d:\n%s", len(want), len(lines), out)
	}
	for i, w := range want {
		if got := strings.Fields(lines[i]); !equalSlices(got, w) {
			t.Fatalf("line %d = %v, want %v", i, got, w)
		}
	}
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
