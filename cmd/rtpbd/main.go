// Command rtpbd runs one RTPB replica — primary or backup — over real UDP
// sockets, with the identical protocol stack the simulation uses. Both
// roles run the same role-based replica state machine; -role only picks
// the starting role. Each replica can expose the line-oriented control
// interface of internal/ctl (the stand-in for the paper's Mach IPC API);
// drive it with cmd/rtpbctl. On the primary the control socket serves
// registrations and writes; on a backup it answers STATUS/READ (and,
// after an in-place takeover, everything else).
//
// With -takeover, a backup whose failure detector declares the primary
// dead promotes itself in place (Section 4.4): the same process flips to
// the primary role under a bumped epoch without copying state, and
// rtpbctl's status verb reports the transition.
//
// With -data <dir>, the replica keeps an asynchronous write-ahead log
// plus epoch snapshots under dir and recovers from it on restart: a
// primary resumes its object set under a fenced epoch, and a backup
// seeds its table from the local durable tail before joining, so
// anti-entropy streams only the gap (disk-fast rejoin). Inspect the
// store with rtpbctl logstat / snapshot.
//
// With -gateway <addr>, a primary also runs the client-facing front tier
// of internal/gateway on a second control listener: sessions subscribe
// to named groups and receive each bound object's staleness certificate
// — value, admitted δ_B, last-update age — every broadcast tick, with
// freshest-image-wins coalescing for slow consumers and admission-aware
// session shedding when the replica's governor degrades. Drive it with
// rtpbctl bind / sub / sessions / groups:
//
//	rtpbd -role primary -listen 127.0.0.1:7000 -peer 127.0.0.1:7001 \
//	    -ctl 127.0.0.1:7777 -gateway 127.0.0.1:7778
//	rtpbctl -addr 127.0.0.1:7778 bind cockpit alt speed
//	rtpbctl -addr 127.0.0.1:7778 sub cockpit   # streams EVENT frames
//
// A two-host (or two-terminal) deployment:
//
//	rtpbd -role backup  -listen 127.0.0.1:7001 -peer 127.0.0.1:7000
//	rtpbd -role primary -listen 127.0.0.1:7000 -peer 127.0.0.1:7001 -ctl 127.0.0.1:7777
//	rtpbctl -addr 127.0.0.1:7777 register alt 64 40ms 50ms 200ms
//	rtpbctl -addr 127.0.0.1:7777 write alt "9000ft"
//
// -peer may be repeated on the primary to broadcast updates to several
// backups (the admission controller charges one transmission per peer):
//
//	rtpbd -role backup  -listen 127.0.0.1:7001 -peer 127.0.0.1:7000
//	rtpbd -role backup  -listen 127.0.0.1:7002 -peer 127.0.0.1:7000
//	rtpbd -role primary -listen 127.0.0.1:7000 \
//	    -peer 127.0.0.1:7001 -peer 127.0.0.1:7002 -ctl 127.0.0.1:7777
//
// With -observe <upstream>, the process runs as a read-only observer
// subscribed to the upstream's update stream — a primary, or another
// observer (chained fan-out). The observer attaches itself through the
// chunked anti-entropy join, serves READ certificates (with chain-
// accumulated θ and depth) on its control socket, relays the stream to
// downstream observers that subscribe to it, and is never promoted or
// counted in any quorum:
//
//	rtpbd -observe 127.0.0.1:7000 -listen 127.0.0.1:7010 -ctl 127.0.0.1:7779
//	rtpbd -observe 127.0.0.1:7010 -listen 127.0.0.1:7011   # chained hop
//	rtpbctl -addr 127.0.0.1:7779 read alt                  # age=… theta=… depth=…
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/ctl"
	"rtpb/internal/durable"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/xkernel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("rtpbd: ", err)
	}
}

// peerList accumulates repeated -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty peer address")
	}
	*p = append(*p, v)
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("rtpbd", flag.ContinueOnError)
	role := fs.String("role", "", "replica role: primary or backup (required unless -observe)")
	observe := fs.String("observe", "", "run as a read-only observer subscribed to this upstream UDP address (a primary or another observer); replaces -role/-peer")
	listen := fs.String("listen", "127.0.0.1:7000", "UDP address to listen on")
	var peers peerList
	fs.Var(&peers, "peer", "peer replica's UDP address (required; repeatable on the primary)")
	ctlAddr := fs.String("ctl", "", `control listener address; default 127.0.0.1:7777 on the primary, disabled on a backup ("off" disables explicitly)`)
	ell := fs.Duration("ell", 5*time.Millisecond, "communication delay bound ℓ")
	mode := fs.String("mode", "normal", "update scheduling: normal or compressed")
	noAdmission := fs.Bool("no-admission", false, "disable admission control (experiments only)")
	heartbeat := fs.Bool("heartbeat", true, "run the heartbeat failure detector")
	takeover := fs.Bool("takeover", false, "backup only: promote in place when the primary is declared dead")
	mtu := fs.Int("mtu", 0, "fragment updates larger than this (0 = no fragmentation layer)")
	gwAddr := fs.String("gateway", "", "primary only: client gateway listener address (sessions, groups, broadcast certificate streaming); disabled when empty")
	gwPeriod := fs.Duration("gateway.period", 50*time.Millisecond, "gateway broadcast tick period")
	dataDir := fs.String("data", "", "durable store directory (created if missing): async WAL + epoch snapshots; on restart the replica recovers from it — a primary resumes under a fenced epoch, a backup rejoins streaming only the gap")
	verbose := fs.Bool("v", false, "log protocol events")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *observe != "" {
		if *role != "" {
			return fmt.Errorf("-observe and -role are mutually exclusive")
		}
		if len(peers) > 0 {
			return fmt.Errorf("-observe names the upstream; -peer does not apply")
		}
		if *takeover {
			return fmt.Errorf("-takeover does not apply to an observer (observers are never promoted)")
		}
		peers = peerList{*observe}
	} else if *role != "primary" && *role != "backup" {
		return fmt.Errorf("-role must be primary or backup (or use -observe <upstream>)")
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peer is required")
	}
	if *role == "backup" && len(peers) > 1 {
		return fmt.Errorf("-peer may be given only once with -role backup (a backup has one primary)")
	}
	if *takeover && *role != "backup" {
		return fmt.Errorf("-takeover applies only to -role backup")
	}
	if *gwAddr != "" && *role != "primary" {
		return fmt.Errorf("-gateway applies only to -role primary")
	}
	switch *ctlAddr {
	case "":
		if *role == "primary" {
			*ctlAddr = "127.0.0.1:7777"
		}
	case "off":
		*ctlAddr = ""
	}
	scheduling := rtpb.ScheduleNormal
	switch *mode {
	case "normal":
	case "compressed":
		scheduling = rtpb.ScheduleCompressed
	default:
		return fmt.Errorf("-mode must be normal or compressed")
	}

	clk := clock.NewReal()
	defer clk.Stop()
	transport, err := netsim.NewUDP(clk, *listen)
	if err != nil {
		return err
	}
	defer transport.Close()
	if rcv, snd := transport.SocketBuffers(); rcv < netsim.MinSocketBuffer || snd < netsim.MinSocketBuffer {
		log.Printf("socket buffers: kernel granted %d B receive, %d B send; under %d B a burst of fragmented updates can be dropped — raise net.core.rmem_max and wmem_max",
			rcv, snd, netsim.MinSocketBuffer)
	}
	port, err := xkernel.NewStack(transport, clk, *mtu)
	if err != nil {
		return err
	}
	// The peer flag names the peer's UDP socket; the RTPB protocol itself
	// is demultiplexed on the x-kernel port protocol's well-known port, so
	// the full participant address is "<ip:udpport>:<rtpbport>". A backup
	// binds a session to its one primary (Peer); a primary broadcasts to
	// every listed backup (Peers).
	cfg := core.Config{
		Clock:                   clk,
		Port:                    port,
		Ell:                     *ell,
		Scheduling:              scheduling,
		DisableAdmissionControl: *noAdmission,
	}
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, rtpb.Addr(fmt.Sprintf("%s:%d", p, rtpb.RTPBPort)))
	}
	if *role == "backup" || *observe != "" {
		cfg.Peer, cfg.Peers = cfg.Peers[0], nil
	}

	// -data turns on the durable store: recover whatever a previous run
	// left behind (a missing or empty directory recovers an empty image),
	// then open the log for this run. Recovery never blocks on
	// corruption — a torn tail just shortens what RestoreDurable seeds.
	var recovered *durable.State
	if *dataDir != "" {
		st, rs, err := durable.Recover(*dataDir)
		if err != nil {
			return err
		}
		if rs.SnapshotUsed || rs.RecordsReplayed > 0 {
			stopped := rs.Stopped
			if stopped == "" {
				stopped = "clean"
			}
			log.Printf("recovered %d object(s) at epoch %d from %s (snapshot=%v, %d record(s) over %d segment(s), tail %s)",
				len(st.Objects), st.Epoch, *dataDir, rs.SnapshotUsed,
				rs.RecordsReplayed, rs.SegmentsReplayed, stopped)
		}
		dlog, err := durable.Open(durable.Config{Dir: *dataDir})
		if err != nil {
			return err
		}
		defer dlog.Close()
		cfg.Durable = dlog
		if len(st.Objects) > 0 || st.Epoch > 0 {
			recovered = st
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	startRole := core.RoleBackup
	switch {
	case *observe != "":
		startRole = core.RoleObserver
	case *role == "primary":
		startRole = core.RolePrimary
	}
	return runReplica(clk, cfg, startRole, *ctlAddr, *gwAddr, *gwPeriod, *heartbeat, *takeover, *verbose, sig, transport.LocalAddr(), recovered)
}

// runReplica drives one replica of either role: build it, wire the
// verbose taps and the role-appropriate failure detector, and serve the
// control socket until a signal arrives. Promotion does not restart the
// process — the same replica flips roles in place.
func runReplica(clk *clock.RealClock, cfg core.Config, role core.Role, ctlAddr, gwAddr string, gwPeriod time.Duration, heartbeat, takeover, verbose bool, sig chan os.Signal, local string, recovered *durable.State) error {
	errCh := make(chan error, 1)
	var rep *core.Replica
	var gw *rtpb.Gateway
	clk.Post(func() {
		r, err := core.NewReplica(cfg, role)
		if err != nil {
			errCh <- err
			return
		}
		rep = r
		if gwAddr != "" {
			gw, err = rtpb.NewGateway(rtpb.GatewayConfig{
				Clock:           clk,
				Backend:         rtpb.ReplicaBackend{Primary: r},
				BroadcastPeriod: gwPeriod,
				OnEvent: func(format string, args ...any) {
					log.Printf(format, args...)
				},
			})
			if err != nil {
				errCh <- err
				return
			}
		}
		if recovered != nil {
			if role == core.RolePrimary {
				n, errs := r.ResumeFromDisk(recovered)
				for _, err := range errs {
					log.Printf("not resumed: %v", err)
				}
				log.Printf("resumed as primary under fenced epoch %d with %d restored object value(s)",
					r.Epoch(), n)
			} else if n := r.RestoreDurable(recovered); n > 0 {
				log.Printf("disk-fast rejoin: %d object value(s) seeded from the local durable tail; anti-entropy streams only the gap", n)
			}
		}
		if verbose {
			r.OnSend = func(_ uint32, name string, seq uint64, _ time.Time) {
				log.Printf("send update %s seq=%d", name, seq)
			}
			r.OnRetransmitRequest = func(id uint32) {
				log.Printf("retransmit request for object %d", id)
			}
			r.OnApply = func(_ uint32, name string, _ uint32, seq uint64, version, _ time.Time) {
				log.Printf("apply %s seq=%d version=%s", name, seq, version.Format(time.RFC3339Nano))
			}
			r.OnGap = func(id uint32, have, got uint64) {
				log.Printf("gap on object %d: have seq %d, got %d; requesting retransmit", id, have, got)
			}
		}
		if role == core.RoleObserver {
			// No failure detector: an observer never takes over, and a
			// dead upstream simply lets its certificates age out of bound.
			r.Subscribe(500 * time.Millisecond)
		} else if heartbeat {
			if err := wireDetector(clk, r, takeover); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	})
	if err := <-errCh; err != nil {
		return err
	}
	peers := fmt.Sprintf("%v", cfg.Peers)
	if cfg.Peer != "" {
		peers = string(cfg.Peer)
	}
	if ctlAddr != "" {
		srv, err := ctl.NewServer(clk, rep, ctlAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("%s up: rtpb on udp %s, control on tcp %s, peers %s",
			rep.Role(), local, srv.Addr(), peers)
	} else {
		log.Printf("%s up: rtpb on udp %s, peers %s", rep.Role(), local, peers)
	}
	if gw != nil {
		gsrv, err := ctl.NewGatewayServer(clk, gw, gwAddr)
		if err != nil {
			return err
		}
		defer gsrv.Close()
		log.Printf("gateway up: sessions on tcp %s, broadcast every %v", gsrv.Addr(), gwPeriod)
	}
	<-sig
	log.Printf("shutting down")
	done := make(chan struct{})
	clk.Post(func() {
		if gw != nil {
			gw.Close()
		}
		rep.Stop()
		close(done)
	})
	<-done
	return nil
}

// wireDetector runs the heartbeat failure detector toward the replica's
// peer; after a death verdict it keeps probing, so a restarted peer is
// noticed. A primary watches its backup: on the backup's death, update
// events to it are cancelled until it answers again, and then it is
// re-integrated with a state transfer. A backup watches its primary:
// without -takeover it only logs the verdict; with it, the replica
// promotes in place and awaits recruits (rtpbctl recruit re-attaches a
// restarted peer).
func wireDetector(clk *clock.RealClock, r *core.Replica, takeover bool) error {
	primary := r.Role() == core.RolePrimary
	var det *failover.Detector
	det, err := failover.NewDetector(clk, failover.DefaultDetectorConfig(), r.SendPing, func() {
		switch {
		case primary:
			log.Printf("backup declared DEAD; update events cancelled, probing for recovery")
			r.SetBackupAlive(false)
		case !takeover:
			log.Printf("PRIMARY DECLARED DEAD — run with -takeover to promote in place; probing for recovery")
		default:
			if _, err := failover.Promote(r, failover.PromoteOptions{Service: "rtpbd"}); err != nil {
				log.Printf("takeover failed: %v", err)
				return
			}
			log.Printf("PRIMARY DECLARED DEAD — promoted in place: role=%s epoch=%d transitions=%d",
				r.Role(), r.Epoch(), r.Transitions())
			return
		}
		clk.Schedule(2*time.Second, func() {
			det.Reset()
			det.Start()
		})
	})
	if err != nil {
		return err
	}
	r.OnPingAck = func(seq uint64) {
		if primary && !r.BackupAlive() {
			log.Printf("backup responding again; resuming with state transfer")
			r.SetBackupAlive(true)
		}
		det.OnAck(seq)
	}
	det.Start()
	return nil
}
