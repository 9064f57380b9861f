package main

// This file is the single list of everything the benchmark reports:
// workloads, end-to-end metrics with their regression bounds, and
// per-layer metrics. BENCHMARK.json is generated from it (`go run
// ./benchmark manifest`) and a test keeps the two identical.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// local keeps a workload out of BENCHMARK.json: `all`, `run`, `repeat`
	// and `compare` handle it, the acceptance driver does not.
	local bool
}

// The acceptance driver wants every workload it is given to print every
// gated metric, so a workload that cannot measure one prints a stand-in
// (see endToEnd). Each why names its stand-ins; they are no coverage.
var workloads = []workloadDef{
	{Name: "steady", Why: "32x64B pair, 200 writes/s open loop, normal scheduling: the paper's Fig. 6/9 base case; cpu/clock work moves write latency, transport work should not. write_per_s only guards against collapse"},
	{Name: "ramp", Why: "steady's pair: 400 writes/s reference rung (latency, staleness), short rungs 800..25600/s, then closed loop of 4 (write_per_s): where write latency and the bound first break"},
	{Name: "pump", Why: "steady with ScheduleCompressed: the send path runs flat out, competes with writes for the one loop; apply_per_s is its headline. Stand-ins: write_mid_us is the first quartile; write_per_s as on steady"},
	{Name: "bulk", Why: "16x16KiB over the MTU-1400 fragmenting stack, 160 writes/s: per-byte copies dominate, per-datagram fixes should show little. write_per_s only guards against collapse"},
	{Name: "ctl", Why: "two real rtpbd (-ctl -data), WRITE and READ at 200/s over TCP: what an operator sees, with ctl, durable and daemon wiring. Stand-ins: propagate_p50_us repeats stale_p99_ms; write_per_s as on steady"},
	{Name: "failover", Why: "20 trials: SIGKILL the primary, retry each due write on the -takeover backup. Stand-ins: stale_p99_ms and propagate_p50_us carry outage_p50_ms; apply_per_s and write_per_s are the offered rate"},
	// model clocks two things, its set-up and the simulator's speed, and the
	// speed moves with the host by 15-27 % across ten runs whatever statistic
	// of the repetitions is taken: above the 25 % cap on a bound. The driver
	// would need it steady, and four stand-ins beside it, so it stays local.
	{Name: "model", Why: "experiments.Run on SimClock (32x64B, 2ms+-1ms link, 10% loss): simulator speed and exactly repeating counters; a single-node, no-network baseline", local: true},
}

// driverWorkloads are the workloads BENCHMARK.json lists.
func driverWorkloads() []workloadDef {
	var out []workloadDef
	for _, w := range workloads {
		if !w.local {
			out = append(out, w)
		}
	}
	return out
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// doc is the metric's one-sentence definition; the README glossary
	// says the same at more length.
	doc string
	// native lists the workloads that measure the metric themselves. Only
	// those cells count as coverage and only those are judged by compare
	// and repeat; nil means the metric is not compared at all.
	native []string
	// cmpBound is the bound compare applies to a metric the driver does
	// not gate; absolute says it (or Bound) is a difference of shares, not
	// a share of the parent's median.
	cmpBound float64
	absolute bool
}

const (
	lower  = "lower"
	higher = "higher"
)

var (
	inProcess = []string{"steady", "ramp", "pump", "bulk"}
	allSeven  = []string{"steady", "ramp", "pump", "bulk", "ctl", "failover", "model"}
)

func with(base []string, more ...string) []string {
	return append(append([]string(nil), base...), more...)
}

// endToEnd are the metrics the acceptance driver gates. Its table is
// rectangular: every workload must print every one of them as a non-zero
// number. The workloads are not that alike, so a cell outside a metric's
// native list holds a stand-in: either the same formula where it cannot
// move (write_per_s under an open loop is the offered rate until the
// system collapses) or a copy of another number of the same run in the
// same unit. Stand-ins are named in the workload's why and in the README
// matrix, carry a "stand-in" note in every report, and are skipped by
// compare and repeat.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, native: allSeven,
		doc: "workload start (after any build) -> first measured op: 600 set-ups (ctl: 25) done and undone in a row, each building or spawning both nodes, registering every object and seeing the backup hold them all, then the 1 s warm-up; failover and model, which have no warm-up: the fastest set-up of the run"},
	{Name: "write_mid_us", Unit: "us", Better: lower, Bound: 0.25, native: []string{"steady", "ramp", "bulk", "ctl", "failover"},
		doc: "mean of the middle half of write due -> completion times (ClientWrite done callback, or the OK line over ctl); ramp: at the 400/s reference rung"},
	{Name: "write_per_s", Unit: "1/s", Better: higher, Bound: 0.20, native: []string{"ramp", "model"},
		doc: "writes completed per wall second (ramp: the closed loop's saturation rate, the issue's write_sat_per_s; model: simulated writes per wall second)"},
	{Name: "propagate_p50_us", Unit: "us", Better: lower, Bound: 0.25, native: inProcess,
		doc: "median of write arrival stamp (the version) -> first OnApply of that version at the backup"},
	{Name: "apply_per_s", Unit: "1/s", Better: higher, Bound: 0.25, native: with(inProcess, "ctl"),
		doc: "updates applied at the backup per wall second (OnApply calls; on ctl the backup's LOGSTAT appended= counter, one record per apply)"},
	{Name: "stale_p99_ms", Unit: "ms", Better: lower, Bound: 0.15, native: with(inProcess, "ctl"),
		doc: "p99 of the certificate Age a reader of the backup is served, one read every 5 ms round-robin over the objects"},
}

// m is a per-layer metric: no bound, not compared.
func m(name, unit, better, doc string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, doc: doc}
}

// demoted is one of the issue's end-to-end metrics that the driver does not
// gate (README "Demotions"). compare still judges it, on the workloads
// that measure it, against the issue's bound: a tenth, or 0.002 absolute
// for a share.
func demoted(name, unit, better string, native []string, doc string) metricDef {
	d := metricDef{Name: name, Unit: unit, Better: better, doc: doc, native: native, cmpBound: 0.10}
	if unit == "share" {
		d.cmpBound, d.absolute = violationSlack, true
	}
	return d
}

// perLayer metrics carry no bound. A metric that does not apply to the
// workload being run reports 0.
var perLayer = []metricDef{
	demoted("write_p50_us", "us", lower, with(inProcess, "ctl", "failover"), "median of write due -> completion; on pump it sits on the cliff between one and two timer ticks and flips by 40 % from run to run, so write_mid_us is gated in its place"),
	demoted("write_p99_us", "us", lower, with(inProcess, "ctl", "failover"), "write due -> completion at the highest percentile up to p99 with at least ten samples beyond it; on failover this is the outage as retried writes see it"),
	demoted("cpu_ms_per_kwrite", "ms", lower, allSeven, "CPU time of the system (process minus the load-generator thread, or summed child rusage) per 1000 completed writes"),
	demoted("propagate_p99_us", "us", lower, inProcess, "propagate at the highest supported percentile up to p99 (on pump it is one pump cycle, which stretches by half whenever the host slows)"),
	demoted("allocs_per_write", "count", lower, with(inProcess, "model"), "process-wide MemStats.Mallocs delta / completed writes over the measured window (in-process workloads and model)"),
	demoted("bound_violation_share", "share", lower, with(inProcess, "ctl"), "certificate reads with Age + Theta > delta_B / reads; compare allows it 0.002 over the parent; never counted as failed operations"),
	demoted("op_fail_share", "share", lower, allSeven, "ops failed, refused for good, or unfinished at the deadline (window + 250 ms) / attempted; the driver's failed field leaves the merely late out (failover: trials not restored within 2 s or failing the takeover-staleness check / trials)"),
	demoted("read_p99_us", "us", lower, with(inProcess, "ctl"), "backup read issue -> reply (posted Certificate in-process, READ line on ctl)"),
	demoted("outage_p50_ms", "ms", lower, []string{"failover"}, "failover: kill -> due time of the first write that succeeds on the promoted backup, median of the trials"),
	demoted("write_max_rate", "1/s", higher, []string{"ramp"}, "ramp: highest ladder rung that passed (tail <= 5 ms, >= 99.5 % completed, no failure, no bound violation)"),
	demoted("write_sat_per_s", "1/s", higher, []string{"ramp"}, "ramp: completed writes per second in the closed loop (the gated write_per_s of ramp)"),
	demoted("setup_once_us", "us", lower, allSeven, "the fastest single set-up of the run; sharper than setup_s, and drifts with the host's wake-up cost by up to a factor of two"),
	demoted("sim_x_realtime", "x", higher, []string{"model"}, "model: virtual seconds simulated / wall seconds, median of the repetitions"),

	// generator
	m("gen.lag_us_p50", "us", lower, "how late the load generator issued an op after its due instant, median"),
	m("gen.lag_us_p99", "us", lower, "the same at p99; above 500 us a ladder rung is generator_limited"),
	m("host.stall_max_ms", "ms", lower, "the longest any of the benchmark's canaries (one thread bound to each CPU, sleeping 10 ms at a time) overslept during the run: how long a CPU stood still; at 100 ms or more the run is measured again, nothing is ever left out of one"),
	m("host.steal_ms", "ms", lower, "CPU time the hypervisor withheld from this machine during the measured window (/proc/stat steal, all CPUs)"),

	// cpu
	m("cpu.submit_overrun_us_p50", "us", lower, "cpu.Resource.Submit(Low, 200us) under RealClock: completion - submit - cost, median"),
	m("cpu.submit_overrun_us_p99", "us", lower, "the same at the highest supported percentile"),
	m("cpu.ops_per_s", "1/s", higher, "back-to-back Submit chain at the 64-byte client-write cost"),
	m("cpu.busy_share", "share", lower, "trace: Primary.CPU().BusyTime() delta / wall"),
	m("cpu.queue_len_p99", "count", lower, "trace: Primary.CPU().QueueLen() sampled every 5 ms, p99"),

	// clock
	m("clock.post_us_p50", "us", lower, "RealClock.Post from a foreign goroutine -> closure runs, median"),
	m("clock.post_per_s", "1/s", higher, "Posts drained per second when posted back to back"),
	m("clock.post_allocs", "count", lower, "allocations per Post of a preallocated closure"),
	m("clock.timer_overshoot_us_p50", "us", lower, "RealClock.Schedule(200us): fired - due, median"),
	m("clock.timer_overshoot_us_p99", "us", lower, "the same at the highest supported percentile"),
	m("clock.sim_event_ns", "ns", lower, "SimClock schedule + fire of one event"),

	// wire
	m("wire.encode_update_64_ns", "ns", lower, "AppendEncode of a 64-byte Update into a reused buffer"),
	m("wire.encode_update_64_allocs", "count", lower, "its allocations"),
	m("wire.encode_update_16k_ns", "ns", lower, "the same for a 16 KiB payload"),
	m("wire.decode_update_64_ns", "ns", lower, "Decode of a 64-byte Update"),
	m("wire.decode_update_64_allocs", "count", lower, "its allocations"),
	m("wire.frame16_flush_ns", "ns", lower, "FrameBuilder: reset, append 16 encoded 64-byte updates, finalize the datagram"),
	m("wire.frame16_decode_ns", "ns", lower, "Decode of that 16-update frame"),
	m("wire.frame16_decode_allocs", "count", lower, "its allocations"),

	// xkernel
	m("xkernel.push_ns", "ns", lower, "session Push of 64 bytes through uport -> driver into a discard transport"),
	m("xkernel.push_allocs", "count", lower, "its allocations (NewMessage included)"),
	m("xkernel.pop_ns", "ns", lower, "a datagram injected at the driver demuxed up to the anchor protocol"),
	m("xkernel.pop_allocs", "count", lower, "its allocations"),
	m("xkernel.frag_push_16k_ns", "ns", lower, "Push of 16 KiB through uport -> frag(1400) -> driver: 12 fragments"),
	m("xkernel.frag_reasm_16k_ns", "ns", lower, "those 12 fragments demuxed and reassembled"),
	m("xkernel.frag_allocs_16k", "count", lower, "allocations of one 16 KiB push + reassembly"),

	// netsim (UDP)
	m("netsim.udp_send_ns", "ns", lower, "UDPTransport.Send of 64 bytes on loopback"),
	m("netsim.udp_send_allocs", "count", lower, "its allocations"),
	m("netsim.udp_oneway_us_p50", "us", lower, "Send -> receiver callback on the peer's clock loop, median"),
	m("netsim.udp_recv_allocs", "count", lower, "allocations per datagram received (process-wide, sender's subtracted)"),
	m("netsim.udp_dgram_per_s", "1/s", higher, "64-byte datagrams delivered per second when sent back to back"),
	m("netsim.udp_drop_share", "share", lower, "share of those datagrams that never arrived"),
	m("netsim.dgrams_per_update", "count", lower, "trace: primary Send calls / updates sent"),
	m("netsim.bytes_per_update", "count", lower, "trace: bytes handed to Send / updates sent"),
	m("netsim.send_self_us_p50", "us", lower, "trace: time inside the primary's Send, median"),
	m("netsim.deliver_self_us_p50", "us", lower, "trace: time inside the backup's receiver callback (demux, decode, apply), median"),

	// core
	m("core.client_write_ns", "ns", lower, "ClientWrite of 64 bytes on a SimClock replica with a discard transport: code cost without timers"),
	m("core.client_write_allocs", "count", lower, "its allocations"),
	m("core.apply_update_ns", "ns", lower, "one encoded 64-byte Update demuxed and applied at a SimClock backup"),
	m("core.apply_update_allocs", "count", lower, "its allocations"),
	m("core.apply_frame16_ns", "ns", lower, "one 16-update frame demuxed and applied"),
	m("core.certificate_ns", "ns", lower, "Replica.Certificate of a 64-byte object"),
	m("core.certificate_allocs", "count", lower, "its allocations"),
	m("core.register_n32_us", "us", lower, "admission of a 33rd object next to 32 admitted ones"),
	m("core.batch_size_mean", "count", higher, "trace: backup applies / datagrams sent"),
	m("core.send_wait_us_p50", "us", lower, "trace: write done -> the send of that version, median"),
	m("core.send_wait_us_p99", "us", lower, "the same at the highest supported percentile"),
	m("core.gaps", "count", lower, "sequence gaps the backup detected"),
	m("core.retransmit_requests", "count", lower, "retransmit requests the backup sent"),
	m("core.deadline_misses", "count", lower, "update releases that found the previous one still queued (PeerLink().Queue.Coalesced) at the end of the run"),

	// durable
	m("durable.append_ns", "ns", lower, "Log.AppendApply enqueue of 64 bytes"),
	m("durable.append_allocs", "count", lower, "its allocations"),
	m("durable.writer_mb_per_s", "MB/s", higher, "record bytes through the background writer per second (NoFsync), Sync included"),
	m("durable.snapshot_ms_n32", "ms", lower, "Snapshot of 32 objects, enqueue through commit"),
	m("durable.records", "count", lower, "ctl: records the two daemons appended (LOGSTAT appended=)"),
	m("durable.bytes_per_user_byte", "count", lower, "ctl: bytes on disk under both -data directories / payload bytes written"),
	m("durable.dropped", "count", lower, "ctl: records shed by the append queue (LOGSTAT dropped=)"),

	// ctl
	m("ctl.write_rtt_us_p50", "us", lower, "WRITE round trip to an in-process ctl.Server on a peerless primary, median"),
	m("ctl.read_rtt_us_p50", "us", lower, "READ round trip, median"),
	m("ctl.write_allocs", "count", lower, "process-wide allocations per WRITE round trip, client included"),

	// sched
	m("sched.rm_exact_n64_us", "us", lower, "FeasibleRMExact over 64 tasks"),

	// failover
	m("failover.detect_ms_p50", "ms", lower, "kill -> the backup's STATUS first says role=primary (polled every 2 ms), median of the trials"),
	m("failover.first_write_ms_p50", "ms", lower, "promotion -> first OK, median"),
	m("failover.writes_refused_per_trial", "count", lower, "ERR replies and broken sends a trial's writer retried through"),
	m("failover.promote_us_n32", "us", lower, "failover.Promote on a 32-object SimClock backup"),

	// gateway
	m("gateway.tick_us_s1000_o8", "us", lower, "one broadcast tick, 1000 sessions x 8 objects into discard sinks"),
	m("gateway.tick_allocs", "count", lower, "its allocations"),

	// model (exact counts)
	m("model.sends", "count", lower, "Result.Sends"),
	m("model.applies", "count", lower, "Result.Applies"),
	m("model.gaps", "count", lower, "Result.Gaps"),
	m("model.retransmit_requests", "count", lower, "Result.RetransmitRequests"),
	m("model.datagrams_delivered", "count", lower, "Result.Net.Delivered"),
	m("model.datagrams_dropped", "count", lower, "Result.Net.DroppedLoss"),
	m("model.excursions", "count", lower, "Result.Excursions"),

	// traced run: stages of one update, due -> first apply -> certificate
	m("trace.gen.lag_us_p50", "us", lower, "due -> Post"),
	m("trace.gen.lag_us_p99", "us", lower, ""),
	m("trace.clock.queue_us_p50", "us", lower, "Post -> closure starts on the primary loop"),
	m("trace.clock.queue_us_p99", "us", lower, ""),
	m("trace.cpu.write_us_p50", "us", lower, "ClientWrite call -> done"),
	m("trace.cpu.write_us_p99", "us", lower, ""),
	m("trace.core.send_wait_us_p50", "us", lower, "done -> the Send carrying that version starts"),
	m("trace.core.send_wait_us_p99", "us", lower, ""),
	m("trace.net.oneway_us_p50", "us", lower, "Send starts -> OnApply at the backup; self time excludes netsim.send and netsim.deliver"),
	m("trace.net.oneway_us_p99", "us", lower, ""),
	m("trace.core.cert_us_p50", "us", lower, "OnApply -> a posted Certificate read shows that version"),
	m("trace.core.cert_us_p99", "us", lower, ""),
	m("trace.propagate_p50_us", "us", lower, "propagate_p50_us of the traced run, to hold against the untraced one"),
	m("trace.overhead_pct", "%", lower, "traced vs untraced write_mid_us"),
}

// nativeOn reports whether workload measures the metric itself.
func (d metricDef) nativeOn(workload string) bool {
	for _, w := range d.native {
		if w == workload {
			return true
		}
	}
	return false
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
