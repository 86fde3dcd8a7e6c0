// Command datnode runs one live DAT monitoring node over real UDP — the
// paper's prototype deployment (§5.1 ran up to 64 instances per machine).
// Each node publishes its local CPU usage (from /proc/stat on Linux, or
// a synthetic sensor with -synthetic) and participates in the continuous
// aggregation of the global total and average.
//
// Start a ring:
//
//	datnode -listen 127.0.0.1:9000 -create
//
// Join more nodes (in other terminals):
//
//	datnode -listen 127.0.0.1:0 -join 127.0.0.1:9000
//	datnode -listen 127.0.0.1:0 -join 127.0.0.1:9000 -probe
//
// Or run many instances in one process, as the paper's cluster
// deployment did (64 per machine):
//
//	datnode -listen 127.0.0.1:9000 -create -instances 64
//
// Whichever node owns the attribute's rendezvous key prints one line per
// slot with the global aggregate. Any node can also poll on demand with
// -query. Stop with Ctrl-C (the node departs gracefully).
//
// With -obs.addr the primary node serves its observability endpoints —
// Prometheus /metrics, a JSON /healthz probe, /debug/dat (the node's
// live aggregation view), /debug/spans, /debug/load (per-tree load and
// the cluster-wide self-monitoring summary), /debug/overload (send-queue
// depth and hi-water, circuit breakers), and net/http/pprof:
//
//	datnode -listen 127.0.0.1:9000 -create -obs.addr 127.0.0.1:8080
//	curl -s http://127.0.0.1:8080/metrics
//
// Diagnostics go to stderr as structured logs; -log.level picks the
// verbosity (debug shows per-join and per-parent-switch detail).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	dat "repro"
	"repro/internal/obs"
)

// syntheticSensor returns a fake CPU reading source. Sensors are called
// from both the aggregation slot loop and the MAAN announce loop (two
// goroutines under the live clock), and *rand.Rand is not safe for
// concurrent use, so the RNG is guarded by a mutex. The seed is fixed
// per instance: deterministic across runs, distinct across instances.
func syntheticSensor(instance int64) func() (float64, bool) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1 + instance))
	base := 20 + rng.Float64()*40
	return func() (float64, bool) {
		mu.Lock()
		defer mu.Unlock()
		return base + rng.Float64()*10, true
	}
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		create    = flag.Bool("create", false, "bootstrap a new ring")
		join      = flag.String("join", "", "bootstrap address of an existing ring")
		probe     = flag.Bool("probe", false, "join with identifier probing (balanced placement)")
		name      = flag.String("name", "", "host name in the resource directory (default: listen address)")
		attr      = flag.String("attr", "cpu-usage", "monitored attribute")
		slot      = flag.Duration("slot", 2*time.Second, "aggregation slot duration")
		query     = flag.Duration("query", 0, "if set, poll the global aggregate on demand at this interval")
		announce  = flag.Duration("announce", 10*time.Second, "MAAN directory refresh interval")
		synthetic = flag.Bool("synthetic", false, "use a synthetic CPU sensor instead of /proc/stat")
		instances = flag.Int("instances", 1, "additional in-process instances joining through this node")
		obsAddr   = flag.String("obs.addr", "", "serve /metrics, /healthz, /debug/dat and pprof on this address")
		selfmon   = flag.Bool("selfmon", true, "publish this node's load counters into the dat.load.* self-monitoring trees")
		selfmonSl = flag.Duration("selfmon.slot", 0, "self-monitoring aggregation slot (0: 4x -slot)")
		share     = flag.Bool("share", true, "roots broadcast completed slot results down their trees (keeps every node's cached aggregates and /debug/load live)")
		logLevel  = flag.String("log.level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if !*create && *join == "" {
		fatal("need -create or -join ADDR")
	}

	attrs := []dat.Attribute{
		{Name: "cpu-usage", Min: 0, Max: 100},
		{Name: "memory-size", Min: 0, Max: 1 << 20},
	}
	selfMon := dat.SelfMonConfig{Enable: *selfmon, Slot: *selfmonSl}
	if selfMon.Enable && selfMon.Slot <= 0 {
		// Load counters move slowly; a slower monitoring slot keeps the
		// plane's overhead a small fraction of the primary traffic.
		selfMon.Slot = 4 * *slot
	}
	observer := obs.NewObserver(obs.DefaultSpanCapacity)
	peer, err := dat.NewPeer(dat.PeerConfig{
		Listen:       *listen,
		Name:         *name,
		Attributes:   attrs,
		SelfMon:      selfMon,
		ShareResults: *share,
		Observer:     observer,
		Logger:       logger,
	})
	if err != nil {
		fatal("peer setup failed", "err", err)
	}
	defer peer.Close()
	logger.Info("datnode up", "addr", peer.Addr(), "id", fmt.Sprintf("%#x", peer.ID()))

	if *obsAddr != "" {
		bound, stopObs, err := obs.Serve(*obsAddr, observer, logger)
		if err != nil {
			fatal("observability server failed", "addr", *obsAddr, "err", err)
		}
		defer stopObs()
		logger.Info("observability endpoints up", "addr", bound,
			"paths", "/metrics /healthz /debug/dat /debug/spans /debug/load /debug/overload /debug/pprof/")
	}

	if *synthetic {
		peer.AddSensor(*attr, syntheticSensor(0))
	} else {
		peer.AddCPUSensor(*attr)
	}

	switch {
	case *create:
		peer.Create()
		logger.Info("created ring", "bootstrap", peer.Addr())
	case *probe:
		if err := peer.JoinProbed(*join); err != nil {
			fatal("probed join failed", "bootstrap", *join, "err", err)
		}
		logger.Info("joined via probing", "id", fmt.Sprintf("%#x", peer.ID()))
	default:
		if err := peer.Join(*join); err != nil {
			fatal("join failed", "bootstrap", *join, "err", err)
		}
		logger.Info("joined ring", "bootstrap", *join)
	}

	err = peer.StartMonitor(*attr, *slot, func(s int64, agg dat.Aggregate) {
		fmt.Printf("[root] slot=%d nodes=%d total=%.1f avg=%.1f min=%.1f max=%.1f\n",
			s, agg.Count, agg.Sum, agg.Avg(), agg.Min, agg.Max)
	})
	if err != nil {
		fatal("start monitor failed", "attr", *attr, "err", err)
	}
	if selfMon.Enable {
		if err := peer.StartSelfMonitor(); err != nil {
			fatal("start self-monitor failed", "err", err)
		}
		logger.Info("self-monitoring trees started", "slot", selfMon.Slot,
			"attrs", fmt.Sprintf("%v", obs.SelfMonAttrs))
	}
	if err := peer.Announce(*announce); err != nil {
		logger.Warn("announce failed", "err", err)
	}

	stopQuery := make(chan struct{})
	if *query > 0 {
		go func() {
			ticker := time.NewTicker(*query)
			defer ticker.Stop()
			for {
				select {
				case <-stopQuery:
					return
				case <-ticker.C:
					agg, err := peer.Query(*attr, *slot)
					if err != nil {
						logger.Warn("query failed", "err", err)
						continue
					}
					fmt.Printf("[query] nodes=%d total=%.1f avg=%.1f\n",
						agg.Count, agg.Sum, agg.Avg())
				}
			}
		}()
	}

	// Extra in-process instances, as in the paper's 64-per-machine
	// deployment: each gets its own socket and sensor and joins through
	// the primary peer.
	var extras []*dat.Peer
	for i := 1; i < *instances; i++ {
		extra, err := dat.NewPeer(dat.PeerConfig{
			Listen:       "127.0.0.1:0",
			Name:         fmt.Sprintf("%s#%d", peer.Addr(), i),
			Attributes:   attrs,
			SelfMon:      selfMon,
			ShareResults: *share,
			Logger:       logger,
		})
		if err != nil {
			fatal("instance setup failed", "instance", i, "err", err)
		}
		defer extra.Close()
		if *synthetic {
			extra.AddSensor(*attr, syntheticSensor(int64(i)))
		} else {
			extra.AddCPUSensor(*attr)
		}
		if err := extra.JoinProbed(peer.Addr()); err != nil {
			fatal("instance join failed", "instance", i, "err", err)
		}
		tag := i
		if err := extra.StartMonitor(*attr, *slot, func(s int64, agg dat.Aggregate) {
			fmt.Printf("[root@#%d] slot=%d nodes=%d total=%.1f avg=%.1f\n",
				tag, s, agg.Count, agg.Sum, agg.Avg())
		}); err != nil {
			fatal("instance monitor failed", "instance", i, "err", err)
		}
		if selfMon.Enable {
			if err := extra.StartSelfMonitor(); err != nil {
				fatal("instance self-monitor failed", "instance", i, "err", err)
			}
		}
		if err := extra.Announce(*announce); err != nil {
			logger.Warn("instance announce failed", "instance", i, "err", err)
		}
		extras = append(extras, extra)
	}
	if len(extras) > 0 {
		logger.Info("running extra in-process instances", "count", len(extras))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopQuery)
	logger.Info("leaving ring")
	for _, extra := range extras {
		_ = extra.Leave()
	}
	if err := peer.Leave(); err != nil {
		logger.Warn("leave failed", "err", err)
	}
}
