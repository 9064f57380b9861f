package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"rtpb/internal/ctl"
)

// The two workloads in this file drive real rtpbd processes, started as an
// operator starts them, through the line protocol an operator uses.
// Everything is observed from outside and nothing is switched on for the
// benchmark's sake: latencies come from the reply lines, staleness from
// the age= field of READ replies, the apply rate from the backup's LOGSTAT
// counter, the promotion from STATUS, CPU from the children's rusage.

const (
	ctlRate       = 200.0 // WRITE/s to the primary and READ/s to the backup
	ctlSetupReps  = 25
	failoverRate  = 100.0
	failoverTrial = 20
	restoreLimit  = 2 * time.Second // a trial that takes longer has failed
	retryPause    = time.Millisecond
	statusPoll    = time.Millisecond // pause between STATUS polls after the kill (the host makes it ~2 ms)
)

// ctlWrite is one WRITE as the writer saw it.
type ctlWrite struct {
	obj       int
	due, done time.Time
	ok        bool
	refused   int // ERR replies and broken sends retried through (failover)
}

// ctlRead is one READ of the backup.
type ctlRead struct {
	obj       int
	due, done time.Time
	cert      certReply
	err       error
}

// lineLoad generates the WRITE and READ streams against a daemon pair.
type lineLoad struct {
	pair    *daemonPair
	rng     *rand.Rand
	order   []int
	payload [][]byte // per object, write counter in the first 8 bytes
	last    [][]byte // last value acknowledged per object
	// lastStandby marks objects whose last acknowledgement came from the
	// promoted backup (failover): only those must read back from it.
	lastStandby []bool
	seq         uint64
}

func newLineLoad(p *daemonPair, seed int64, size int) *lineLoad {
	l := &lineLoad{pair: p, rng: rand.New(rand.NewSource(seed))}
	l.order = l.rng.Perm(len(p.names))
	l.payload = make([][]byte, len(p.names))
	l.last = make([][]byte, len(p.names))
	l.lastStandby = make([]bool, len(p.names))
	for i := range l.payload {
		l.payload[i] = make([]byte, size)
		l.rng.Read(l.payload[i])
	}
	return l
}

// writeLine renders the next WRITE for object obj.
func (l *lineLoad) writeLine(obj int) string {
	l.seq++
	binary.BigEndian.PutUint64(l.payload[obj], l.seq)
	return "WRITE " + l.pair.names[obj] + " " + base64.StdEncoding.EncodeToString(l.payload[obj])
}

// reads issues READs of the backup on a fixed schedule until end, round-
// robin over the objects; the reader holds its own connection and its own
// pinned thread, as a second operator would.
func (l *lineLoad) reads(start time.Time, period time.Duration, end time.Time) []ctlRead {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out []ctlRead
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return out
		}
		waitUntil(due)
		obj := i % len(l.pair.names)
		reply, err := l.pair.reader.Do("READ " + l.pair.names[obj])
		r := ctlRead{obj: obj, due: due, done: time.Now(), err: err}
		if err == nil {
			r.cert, r.err = parseRead(reply)
		}
		out = append(out, r)
	}
}

// lineStats accumulates the write numbers both workloads report; ctl fills
// it from one window, failover from twenty trials.
type lineStats struct {
	seconds   float64 // measured wall time writes were on schedule
	attempted int
	failed    int
	writeUs   samples
	allWrites int // completed writes over the daemons' whole life
	childCPU  time.Duration
}

func (s *lineStats) fill(rep *report) {
	completed := s.attempted - s.failed
	rep.set("write_mid_us", s.writeUs.midmean(), len(s.writeUs))
	rep.set("write_p50_us", s.writeUs.median(), len(s.writeUs))
	rep.setTail("write_p99_us", s.writeUs, 0.99)
	rep.set("write_per_s", float64(completed)/max(s.seconds, 1e-9), completed)
	rep.annotate("write_per_s", "stand-in: the offered rate unless the system collapses")
	if s.allWrites > 0 {
		rep.set("cpu_ms_per_kwrite", float64(s.childCPU)/float64(time.Millisecond)/(float64(s.allWrites)/1000), s.allWrites)
	}
}

// logstat reads one counter of a daemon's LOGSTAT reply.
func logstat(c *ctl.Client, key string) (float64, error) {
	reply, err := c.Do("LOGSTAT")
	if err != nil || !strings.HasPrefix(reply, "OK ") {
		return 0, fmt.Errorf("LOGSTAT: %q %v", reply, err)
	}
	return atof(statusField(reply, key)), nil
}

// runCtl is the ctl workload: WRITE at 200/s to the primary and READ at
// 200/s to the backup for warm-up + measure.
func runCtl(seed int64, measure time.Duration, rep *report) {
	bin, err := buildDaemon()
	if err != nil {
		rep.problem("%v", err)
		return
	}
	cfg := daemonConfig{objects: 32, size: 64, data: true}
	begun := time.Now()
	var setups samples
	var p *daemonPair
	for i := 0; i < ctlSetupReps; i++ {
		if p != nil {
			p.stop()
		}
		var d time.Duration
		if p, d, err = startPair(bin, cfg); err != nil {
			rep.problem("set-up: %v", err)
			return
		}
		setups.add(d.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			p.stop()
		}
	}()

	l := newLineLoad(p, seed, cfg.size)
	period := time.Duration(float64(time.Second) / ctlRate)
	start := time.Now().Add(spinMargin + time.Duration(l.rng.Int63n(int64(declaredPeriod))))
	from, to := start.Add(liveWarmup), start.Add(liveWarmup+measure)
	in := func(t time.Time) bool { return !t.Before(from) && t.Before(to) }
	reportSetup(rep, begun, from, setups)

	var reads []ctlRead
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		reads = l.reads(start.Add(period/2), period, to)
	}()

	// The backup appends one record to its log per update it applies, so
	// its LOGSTAT counter, read at both ends of the window, is the apply
	// rate — without asking the daemon to log anything it would not.
	var applied [2]float64
	var appliedAt [2]time.Time
	adminDone := make(chan struct{})
	go func() {
		defer close(adminDone)
		for i, at := range []time.Time{from, to} {
			time.Sleep(time.Until(at))
			n, err := logstat(p.admin, "appended")
			if err != nil {
				rep.problem("backup %v", err)
				return
			}
			applied[i], appliedAt[i] = n, time.Now()
		}
	}()

	var writes []ctlWrite
	var lagUs samples
	var steal0, steal1 time.Duration // host steal at the window's ends
	measuring := false
	writesDone := make(chan struct{})
	go func() {
		defer close(writesDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(to) {
				steal1 = hostSteal()
				return
			}
			if !measuring && !due.Before(from) {
				steal0, measuring = hostSteal(), true
			}
			obj := l.order[i%len(l.order)]
			line := l.writeLine(obj)
			if lag := waitUntil(due); in(due) {
				lagUs.addDur(lag)
			}
			reply, err := p.writer.Do(line)
			w := ctlWrite{obj: obj, due: due, done: time.Now(), ok: err == nil && strings.HasPrefix(reply, "OK ")}
			if w.ok {
				l.last[obj] = append(l.last[obj][:0], l.payload[obj]...)
			} else {
				rep.problem("WRITE: %q %v", reply, err)
			}
			writes = append(writes, w)
		}
	}()
	<-writesDone
	<-readsDone
	<-adminDone

	var s lineStats
	rep.set("gen.lag_us_p50", lagUs.median(), len(lagUs))
	rep.setTail("gen.lag_us_p99", lagUs, 0.99)
	rep.set("host.steal_ms", float64(steal1-steal0)/float64(time.Millisecond), 0)
	for _, w := range writes {
		if w.ok {
			s.allWrites++
		}
		if !in(w.due) {
			continue
		}
		s.attempted++
		if !w.ok {
			s.failed++
			continue
		}
		s.writeUs.addDur(w.done.Sub(w.due))
		// From the window's start to its last completion.
		s.seconds = max(s.seconds, w.done.Sub(from).Seconds())
	}

	var staleMs, readUs samples
	violations, nonMonotone := 0, 0
	held := make([]time.Time, len(p.names))
	for _, r := range reads {
		if r.err != nil {
			if in(r.due) {
				rep.problem("READ: %v", r.err)
			}
			continue
		}
		if r.cert.version.Before(held[r.obj]) {
			nonMonotone++
		}
		held[r.obj] = r.cert.version
		if !in(r.due) {
			continue
		}
		staleMs.addDurMs(r.cert.age)
		readUs.addDur(r.done.Sub(r.due))
		if r.cert.age+r.cert.th > r.cert.delta {
			violations++
		}
	}
	// As in runLive: reads older than delta_B are a share, not failed ops.
	rep.ops(s.attempted, s.failed)
	rep.setTail("stale_p99_ms", staleMs, 0.99)
	rep.setTail("read_p99_us", readUs, 0.99)
	rep.set("bound_violation_share", float64(violations)/float64(max(len(staleMs), 1)), len(staleMs))
	rep.set("op_fail_share", float64(s.failed)/float64(max(s.attempted, 1)), s.attempted)
	if violations > 0 {
		rep.note("%d of %d reads broke delta_B", violations, len(staleMs))
	}
	if nonMonotone > 0 {
		rep.problem("%d reads showed an object's version moving backwards", nonMonotone)
	}
	if d := appliedAt[1].Sub(appliedAt[0]).Seconds(); d > 0 {
		rep.set("apply_per_s", (applied[1]-applied[0])/d, int(applied[1]-applied[0]))
	}

	converge(p.admin, p.names, l.last, rep)
	userBytes := float64(s.allWrites * cfg.size)
	var records, dropped float64
	for _, c := range []*ctl.Client{p.writer, p.admin} {
		for key, sum := range map[string]*float64{"appended": &records, "dropped": &dropped} {
			n, err := logstat(c, key)
			if err != nil {
				rep.problem("%v", err)
			}
			*sum += n
		}
	}
	rep.set("durable.records", records, 0)
	rep.set("durable.dropped", dropped, 0)
	if userBytes > 0 {
		rep.set("durable.bytes_per_user_byte", float64(dirBytes(p.dirs))/userBytes, 0)
	}

	s.childCPU = p.stop()
	stopped = true
	s.fill(rep)
	// ctl has no view of a single update's first apply without switching
	// the daemon's event log on, which no production rtpbd runs with. The
	// cell repeats the steadiest number of the run that has a time for a
	// unit, so that it never stands in the way of the driver's spread check.
	rep.standIn("propagate_p50_us", rep.value("stale_p99_ms")*1000, "stale_p99_ms in us")
}

// converge waits until a READ of every object returns the last value its
// writer had acknowledged.
func converge(c *ctl.Client, names []string, last [][]byte, rep *report) {
	deadline := time.Now().Add(drainTimeout)
	for i, name := range names {
		if last[i] == nil {
			continue
		}
		for {
			reply, err := c.Do("READ " + name)
			if err == nil {
				if cert, perr := parseRead(reply); perr == nil && bytes.Equal(cert.value, last[i]) {
					break
				}
			}
			if time.Now().After(deadline) {
				rep.problem("after %v the backup's %s still differs from the last value written (%q %v)", drainTimeout, name, reply, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func atof(s string) float64 {
	var v float64
	_, _ = fmt.Sscanf(s, "%g", &v) // a missing field reads as 0
	return v
}

func dirBytes(dirs []string) int64 {
	var total int64
	for _, d := range dirs {
		_ = filepath.Walk(d, func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				total += info.Size()
			}
			return nil // a file pruned mid-walk just is not counted
		})
	}
	return total
}

// trialResult is one failover trial.
type trialResult struct {
	setup       time.Duration
	writes      []ctlWrite
	start       time.Time // first write due
	killedAt    time.Time
	promotedAt  time.Time // the backup's STATUS first said role=primary; zero if never seen
	firstOK     time.Time // completion of the first write served after the kill
	end         time.Time
	refused     int
	cpu         time.Duration
	restored    bool
	staleAtKill string // non-empty: the takeover-staleness check failed
}

// runFailover runs failoverTrial trials: write at 100/s, SIGKILL the
// primary, keep retrying each due write against the backup until the
// promoted backup serves it.
func runFailover(seed int64, measure time.Duration, rep *report) {
	bin, err := buildDaemon()
	if err != nil {
		rep.problem("%v", err)
		return
	}
	// The kill comes 0.5 s into a trial at the issue's 10 s run length.
	killAfter := measure / 20
	rng := rand.New(rand.NewSource(seed))
	var s lineStats
	var setups, outageMs, detectMs, firstWriteMs samples
	refused, failedTrials := 0, 0
	steal0 := hostSteal()
	// The kill's offset within one heartbeat interval samples the detector's
	// phase. One trial per twentieth of the interval, in seeded order: twenty
	// independent draws cover the interval unevenly, and the median outage
	// then moves by 6 % between seeds for no other reason.
	const heartbeatInterval = 50 * time.Millisecond
	slots := rng.Perm(failoverTrial)
	for i := 0; i < failoverTrial; i++ {
		jitter := (time.Duration(slots[i])*heartbeatInterval + time.Duration(rng.Int63n(int64(heartbeatInterval)))) / failoverTrial
		t, err := failoverOnce(bin, rng.Int63(), killAfter+jitter)
		if err != nil {
			rep.problem("trial %d: %v", i, err)
			failedTrials++
			continue
		}
		setups.add(t.setup.Seconds())
		s.childCPU += t.cpu
		refused += t.refused
		for _, w := range t.writes {
			s.attempted++
			if !w.ok {
				s.failed++
				continue
			}
			s.allWrites++
			s.writeUs.addDur(w.done.Sub(w.due))
		}
		s.seconds += t.end.Sub(t.start).Seconds()
		if !t.restored || t.staleAtKill != "" {
			failedTrials++
			rep.problem("trial %d: service not restored within %v, or %s", i, restoreLimit, t.staleAtKill)
			continue
		}
		outageMs.addDurMs(t.firstOK.Sub(t.killedAt))
		if !t.promotedAt.IsZero() {
			detectMs.addDurMs(t.promotedAt.Sub(t.killedAt))
			firstWriteMs.addDurMs(t.firstOK.Sub(t.promotedAt))
		}
	}
	if len(setups) == 0 {
		return
	}
	rep.ops(s.attempted, s.failed)
	rep.set("host.steal_ms", float64(hostSteal()-steal0)/float64(time.Millisecond), 0)
	// A trial is set up once and measured at once: there is no warm-up to
	// steady the number, and a set-up that spawns two processes needs none.
	rep.set("setup_s", slices.Min(setups), len(setups))
	rep.set("setup_once_us", slices.Min(setups)*1e6, len(setups))
	s.fill(rep)
	rep.set("op_fail_share", float64(failedTrials)/failoverTrial, failoverTrial)
	rep.set("outage_p50_ms", outageMs.median(), len(outageMs))
	rep.set("failover.detect_ms_p50", detectMs.median(), len(detectMs))
	rep.set("failover.first_write_ms_p50", firstWriteMs.median(), len(firstWriteMs))
	rep.set("failover.writes_refused_per_trial", float64(refused)/failoverTrial, failoverTrial)
	// A trial has no reader and no view of the backup's applies. The cells
	// the driver gates staleness and propagation in carry this workload's
	// headline, so the driver holds the outage to a bound; the apply rate
	// repeats the write rate.
	rep.standIn("stale_p99_ms", outageMs.median(), "outage_p50_ms")
	rep.standIn("propagate_p50_us", outageMs.median()*1000, "outage_p50_ms in us")
	rep.standIn("apply_per_s", rep.value("write_per_s"), "write_per_s")
}

func failoverOnce(bin string, seed int64, killAfter time.Duration) (*trialResult, error) {
	cfg := daemonConfig{objects: 8, size: 64, backupFlags: []string{"-takeover"}}
	p, setup, err := startPair(bin, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t := &trialResult{setup: setup}
	defer func() { t.cpu += p.stop() }()
	// The writer's second connection: where it turns when the primary
	// stops answering.
	standby, err := dialCtl(p.backup.ctl)
	if err != nil {
		return nil, err
	}
	defer standby.Close()

	l := newLineLoad(p, seed, cfg.size)
	period := time.Duration(float64(time.Second) / failoverRate)
	t.start = time.Now().Add(spinMargin)
	killDue := t.start.Add(killAfter)
	// Keep writing for a fifth of the pre-kill time after service returns,
	// so the promoted backup is seen serving on schedule again.
	settle := killAfter / 5
	giveUp := killDue.Add(restoreLimit)

	// The detector's share of the outage: from the kill on, a third
	// connection asks the backup for its role until it says primary.
	killed, stopPoll, pollDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var promotedAt time.Time
	go func() {
		defer close(pollDone)
		select {
		case <-killed:
		case <-stopPoll:
			return
		}
		for {
			if reply, err := p.admin.Do("STATUS"); err == nil && statusField(reply, "role") == "primary" {
				promotedAt = time.Now()
				return
			}
			select {
			case <-stopPoll:
				return
			case <-time.After(statusPoll):
			}
		}
	}()

	target := p.writer
	func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; ; i++ {
			due := t.start.Add(time.Duration(i) * period)
			if t.restored && !due.Before(t.firstOK.Add(settle)) || due.After(giveUp) {
				return
			}
			obj := l.order[i%len(l.order)]
			line := l.writeLine(obj)
			if t.killedAt.IsZero() && !due.Before(killDue) {
				waitUntil(killDue)
				killGroup(p.primary.cmd)
				t.killedAt = time.Now()
				close(killed)
				target = standby
			}
			waitUntil(due)
			w := ctlWrite{obj: obj, due: due}
			for {
				reply, err := target.Do(line)
				if err == nil && strings.HasPrefix(reply, "OK ") {
					w.ok, w.done = true, time.Now()
					break
				}
				if t.killedAt.IsZero() {
					// Before the kill nothing may be refused.
					w.done = time.Now()
					break
				}
				w.refused++
				if time.Now().After(giveUp) {
					break
				}
				time.Sleep(retryPause)
			}
			t.refused += w.refused
			if w.ok {
				l.last[obj] = append(l.last[obj][:0], l.payload[obj]...)
				l.lastStandby[obj] = target == standby
				if !t.killedAt.IsZero() && !t.restored {
					t.restored, t.firstOK = true, w.done
				}
			}
			t.writes = append(t.writes, w)
			if !w.ok {
				return
			}
		}
	}()
	t.end = time.Now()
	close(stopPoll)
	<-pollDone
	t.promotedAt = promotedAt
	if t.killedAt.IsZero() {
		return nil, fmt.Errorf("a write failed before the kill:\n%s", p.primary.logTail())
	}

	if t.restored {
		// Takeover-staleness: what the promoted backup serves for each
		// object must be no older than delta_B at the kill, and the values
		// written since must read back.
		for i, name := range p.names {
			reply, err := standby.Do("READ " + name)
			cert, perr := parseRead(reply)
			switch {
			case err != nil || perr != nil:
				t.staleAtKill = fmt.Sprintf("READ %s after takeover: %q %v %v", name, reply, err, perr)
			case t.killedAt.Sub(cert.version) > declaredDeltaB:
				t.staleAtKill = fmt.Sprintf("%s was %v old at the kill (delta_B %v)", name, t.killedAt.Sub(cert.version), declaredDeltaB)
			case l.lastStandby[i] && !bytes.Equal(cert.value, l.last[i]):
				t.staleAtKill = fmt.Sprintf("%s does not read back the value written after takeover", name)
			}
		}
		if reply, err := standby.Do("STATUS"); err != nil || statusField(reply, "role") != "primary" {
			t.staleAtKill = fmt.Sprintf("backup STATUS after takeover: %q %v", reply, err)
		}
	}
	return t, nil
}
