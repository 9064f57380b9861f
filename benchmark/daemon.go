package main

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rtpb/internal/ctl"
)

// repoRoot finds the module root (the directory of the go.mod that
// declares module rtpb) at or above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module rtpb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no rtpb go.mod at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark leaves behind goes: the
// rtpbd binary, daemon data directories (removed on exit) and span files.
func buildDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, ".bench_build")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildDaemon compiles cmd/rtpbd from the checkout's own source.
func buildDaemon() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir, err := buildDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "rtpbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rtpbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rtpbd: %v\n%s", err, out)
	}
	return bin, nil
}

// cleanups are run on every exit path, signals included: kill what was
// spawned, remove what was created.
var cleanups struct {
	sync.Mutex
	fns map[int]func()
	seq int
}

func onExit(fn func()) (cancel func()) {
	cleanups.Lock()
	defer cleanups.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = make(map[int]func())
	}
	cleanups.seq++
	id := cleanups.seq
	cleanups.fns[id] = fn
	return func() {
		cleanups.Lock()
		delete(cleanups.fns, id)
		cleanups.Unlock()
	}
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// freeAddr reserves a loopback address by binding an ephemeral port and
// releasing it; the daemons need each other's addresses before they start.
func freeAddr(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer c.Close()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// logKeep is how many of a daemon's last log lines are kept for error
// messages.
const logKeep = 20

// daemon is one running rtpbd, started the way an operator starts it: no
// -v, nothing that a production daemon does not also do.
type daemon struct {
	cmd      *exec.Cmd
	ctl      string
	uncancel func()

	mu     sync.Mutex
	tail   []string // the last logKeep lines of its log
	logEOF chan struct{}
}

func startDaemon(bin string, udp, peer, ctlAddr string, extra ...string) (*daemon, error) {
	args := append([]string{"-listen", udp, "-peer", peer, "-ctl", ctlAddr}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), ctl: ctlAddr, logEOF: make(chan struct{})}
	ownProcessGroup(d.cmd)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.uncancel = onExit(func() { killGroup(d.cmd) })
	go d.readLog(stderr)
	return d, nil
}

// readLog drains the daemon's log (a handful of lines: start-up, role
// changes) so the pipe never fills.
func (d *daemon) readLog(r io.Reader) {
	defer close(d.logEOF)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		d.mu.Lock()
		if len(d.tail) == logKeep {
			d.tail = d.tail[1:]
		}
		d.tail = append(d.tail, sc.Text())
		d.mu.Unlock()
	}
}

// logTail is the last few log lines, for error messages.
func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n") + "\n"
}

// kill stops the daemon with SIGKILL, waits for it and reports the CPU
// time it used. It is safe to call twice.
func (d *daemon) kill() time.Duration {
	killGroup(d.cmd)
	<-d.logEOF
	_ = d.cmd.Wait() // it was killed: the error is the signal
	d.uncancel()
	return childCPU(d.cmd.ProcessState)
}

// dialCtl connects to a daemon's control socket once it is listening.
func dialCtl(addr string) (*ctl.Client, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := ctl.Dial(addr)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// daemonPair is a primary and a backup rtpbd with their control
// connections open and every object registered and replicated.
type daemonPair struct {
	primary, backup *daemon
	// One connection per stream, as two operators would hold them.
	writer *ctl.Client // WRITE to the primary
	reader *ctl.Client // READ from the backup
	admin  *ctl.Client // STATUS/LOGSTAT/READ on the backup
	names  []string
	dirs   []string
	// undirs cancels the exit-time removal of dirs once stop has done it.
	undirs func()
}

type daemonConfig struct {
	objects, size int
	data          bool     // give both daemons a -data directory
	backupFlags   []string // e.g. -takeover
}

// startPair spawns both daemons, registers the objects through the
// primary's ctl and waits until the backup reports them all.
func startPair(bin string, cfg daemonConfig) (*daemonPair, time.Duration, error) {
	t0 := time.Now()
	var addrs [4]string
	for i, network := range []string{"udp", "udp", "tcp", "tcp"} {
		a, err := freeAddr(network)
		if err != nil {
			return nil, 0, err
		}
		addrs[i] = a
	}
	p := &daemonPair{}
	fail := func(err error) (*daemonPair, time.Duration, error) {
		detail := ""
		for _, d := range []*daemon{p.primary, p.backup} {
			if d != nil {
				detail += "\n" + d.logTail()
			}
		}
		p.stop()
		return nil, 0, fmt.Errorf("%w%s", err, detail)
	}
	pFlags, bFlags := []string{"-role", "primary"}, append([]string{"-role", "backup"}, cfg.backupFlags...)
	if cfg.data {
		dir, err := buildDir()
		if err != nil {
			return fail(err)
		}
		for _, flags := range []*[]string{&pFlags, &bFlags} {
			d, err := os.MkdirTemp(dir, "data-")
			if err != nil {
				return fail(err)
			}
			p.dirs = append(p.dirs, d)
			*flags = append(*flags, "-data", d)
		}
		dirs := p.dirs
		p.undirs = onExit(func() { removeAll(dirs) })
	}
	var err error
	if p.backup, err = startDaemon(bin, addrs[1], addrs[0], addrs[3], bFlags...); err != nil {
		return fail(err)
	}
	if p.primary, err = startDaemon(bin, addrs[0], addrs[1], addrs[2], pFlags...); err != nil {
		return fail(err)
	}
	if p.writer, err = dialCtl(p.primary.ctl); err != nil {
		return fail(err)
	}
	if p.reader, err = dialCtl(p.backup.ctl); err != nil {
		return fail(err)
	}
	if p.admin, err = dialCtl(p.backup.ctl); err != nil {
		return fail(err)
	}
	for i := 0; i < cfg.objects; i++ {
		name := objectName(i)
		reply, err := p.writer.Do(fmt.Sprintf("REGISTER %s %d %v %v %v", name, cfg.size, declaredPeriod, declaredDeltaP, declaredDeltaB))
		if err != nil || !strings.HasPrefix(reply, "OK ") {
			return fail(fmt.Errorf("REGISTER %s: %q %v", name, reply, err))
		}
		p.names = append(p.names, name)
	}
	deadline := time.Now().Add(joinTimeout)
	for {
		reply, err := p.admin.Do("STATUS")
		if err != nil {
			return fail(fmt.Errorf("backup STATUS: %v", err))
		}
		if statusField(reply, "objects") == strconv.Itoa(cfg.objects) {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("backup never reported %d objects: %q", cfg.objects, reply))
		}
	}
	return p, time.Since(t0), nil
}

// stop kills both daemons, removes their data directories and reports
// the CPU time they used.
func (p *daemonPair) stop() time.Duration {
	for _, c := range []*ctl.Client{p.writer, p.reader, p.admin} {
		if c != nil {
			c.Close()
		}
	}
	var cpu time.Duration
	for _, d := range []*daemon{p.primary, p.backup} {
		if d != nil {
			cpu += d.kill()
		}
	}
	removeAll(p.dirs)
	if p.undirs != nil {
		p.undirs()
	}
	return cpu
}

func removeAll(dirs []string) {
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: the driver empties .bench_build anyway
	}
}

// statusField extracts key=value from a ctl reply line.
func statusField(reply, key string) string {
	for _, f := range strings.Fields(reply) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// certReply is a parsed READ reply.
type certReply struct {
	value          []byte
	version        time.Time
	age, delta, th time.Duration
}

func parseRead(reply string) (certReply, error) {
	f := strings.Fields(reply)
	if len(f) < 3 || f[0] != "OK" {
		return certReply{}, fmt.Errorf("READ reply %q", reply)
	}
	var c certReply
	var err error
	if c.value, err = base64.StdEncoding.DecodeString(f[1]); err != nil {
		return c, err
	}
	if c.version, err = time.Parse(time.RFC3339Nano, f[2]); err != nil {
		return c, err
	}
	for key, dst := range map[string]*time.Duration{"age": &c.age, "delta": &c.delta, "theta": &c.th} {
		if *dst, err = time.ParseDuration(statusField(reply, key)); err != nil {
			return c, fmt.Errorf("READ reply %q: %s: %v", reply, key, err)
		}
	}
	return c, nil
}
