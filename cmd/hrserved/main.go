// Command hrserved serves a hierarchical relational database over TCP
// using the HQL wire protocol: a HELLO line, then multiplexed binary frames
// (see docs/HQL.md, "Wire protocol").
//
//	hrserved -data ./mydb                 # durable database in ./mydb
//	hrserved -addr :7583                  # in-memory database
//	hrserved -data ./mydb -workers 4 -queue 32 -max-conns 128
//	hrserved -metrics-addr 127.0.0.1:9090 # HTTP /metrics + /debug/pprof
//	hrserved -slow-query 100ms            # log slow statements to stderr
//
// Multi-tenancy (see README "Multi-tenancy"):
//
//	hrserved -tenant acme -tenant "beta:max-inflight=4,rate=100,burst=200"
//
// Each -tenant declares a named in-memory namespace with its own admission
// quota and rate limit; clients select one in their HELLO. Limits on the
// default namespace: -tenant "default:rate=500".
//
// Materialized views (see docs/VIEWS.md):
//
//	hrserved -data ./mydb -views
//
// -views enables CREATE MATERIALIZED VIEW (registered views are computed
// once, persisted next to the store, and maintained incrementally from the
// committed WAL) and the SUBSCRIBE verb, which streams view and relation
// change feeds to clients with resumable positions.
//
// Replication (see docs/REPLICATION.md):
//
//	hrserved -data ./mydb -addr :7583        # primary: also serves WAL shipping on :7583
//	hrserved -replica-of host:7583           # read replica following a primary
//
// Every node has one address. A durable primary serves snapshots (SNAP) and
// WAL streams (REPL) to followers on its client listener, beside HQL. A
// replica keeps a copy in sync over TCP, answers read-only HQL plus LAG,
// rejects writes, and flips writable when told PROMOTE (manual failover) or
// — with -auto-failover — when it wins an election after the primary falls
// silent.
//
// Self-healing failover (see docs/REPLICATION.md):
//
//	hrserved -replica-of host:7583 -id r1 -peer hostB:7583 \
//	    -auto-failover -election-timeout 2s -data ./r1db
//
// -id names the replica for deterministic election tiebreaks; -peer (one
// per peer node) is who it consults before self-promoting. With -data,
// promotion is durable: the applied state is materialized as a store under
// a fresh fencing term and the node serves replication on its own address
// to the surviving replicas, which retarget to it. A deposed primary
// restarted with -peer flags detects the newer term, quarantines its
// unreplicated WAL suffix to a sidecar file, and rejoins as a replica of
// whoever won.
//
// Sharding (see docs/SHARDING.md):
//
//	hrserved -shard-id 0 -shard-peers hostA:7583,hostB:7583,hostC:7583
//
// -shard-id/-shard-peers declare this node one shard of a hash-partitioned
// cluster: it answers SHARDMAP with its identity and EXECSHARD with
// shard-local reads and two-phase-commit participation. Combine with
// -replica-of to give each shard a replica set; coordinators
// (hrdb.DialCluster) ride shard failovers through the same Router machinery
// as any client.
//
// The server sheds load beyond its queue with "overloaded" replies,
// enforces per-request deadlines, and on SIGINT/SIGTERM drains in-flight
// statements (bounded by -drain) before closing the store. Process metrics
// are also available over the wire protocol's STATS request regardless of
// -metrics-addr; see docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hrdb"
)

// rejoinProbeTimeout bounds each peer probe a restarting durable node makes
// to discover whether it was deposed while down.
const rejoinProbeTimeout = 3 * time.Second

type serveConfig struct {
	views           bool
	addr            string
	dataDir         string
	metricsAddr     string
	replicaOf       string
	id              string
	peers           []string
	autoFailover    bool
	electionTimeout time.Duration
	drain           time.Duration
	shardID         int
	shardPeers      []string
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7583", "listen address")
	dataDir := flag.String("data", "", "durable database directory (primary), or durable-promotion directory (replica mode)")
	workers := flag.Int("workers", 0, "statement-executing workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4×workers)")
	maxConns := flag.Int("max-conns", 0, "concurrent connection limit (0 = 256)")
	idle := flag.Duration("idle", 0, "idle connection timeout (0 = 5m, <0 disables)")
	maxDeadline := flag.Duration("max-deadline", 0, "per-request deadline cap (0 = 30s, <0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus) and /debug/pprof (empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0, "log statements at least this slow to stderr (0 = disabled)")
	replicaOf := flag.String("replica-of", "", "address of the primary to follow (replica mode)")
	id := flag.String("id", "", "replica election identity (required with -auto-failover; equally caught-up candidates tiebreak lexicographically)")
	autoFailover := flag.Bool("auto-failover", false, "self-promote after -election-timeout of replication silence (replica mode)")
	electionTimeout := flag.Duration("election-timeout", 0, "replication silence that triggers an election campaign (0 = 2s)")
	views := flag.Bool("views", false, "enable materialized views and SUBSCRIBE change feeds (requires -data)")
	shardID := flag.Int("shard-id", -1, "this node's shard index (requires -shard-peers; -1 = not a shard)")
	shardPeers := flag.String("shard-peers", "", "comma-separated client addresses of every shard, in shard-id order (fixes the shard count)")
	var peers peerFlags
	flag.Var(&peers, "peer", "client address of a peer node, repeatable (election probes; deposed-primary rejoin checks)")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", `named namespace, repeatable: "name[:max-inflight=N,rate=R,burst=B]"`)
	flag.Parse()

	opts := hrdb.ServerOptions{
		Workers:     *workers,
		QueueDepth:  *queue,
		MaxConns:    *maxConns,
		IdleTimeout: *idle,
		MaxDeadline: *maxDeadline,
		Tenants:     tenants.configs,
	}
	if *slowQuery > 0 {
		opts.SlowQuery = hrdb.NewSlowQueryLog(os.Stderr, *slowQuery)
	}
	cfg := serveConfig{
		views:           *views,
		addr:            *addr,
		dataDir:         *dataDir,
		metricsAddr:     *metricsAddr,
		replicaOf:       *replicaOf,
		id:              *id,
		peers:           peers.addrs,
		autoFailover:    *autoFailover,
		electionTimeout: *electionTimeout,
		drain:           *drain,
		shardID:         *shardID,
	}
	if *shardPeers != "" {
		cfg.shardPeers = strings.Split(*shardPeers, ",")
	}
	if err := run(cfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "hrserved:", err)
		os.Exit(1)
	}
}

func run(cfg serveConfig, opts hrdb.ServerOptions) error {
	if cfg.autoFailover && cfg.replicaOf == "" {
		return errors.New("-auto-failover is a replica flag; it requires -replica-of")
	}
	if cfg.autoFailover && cfg.id == "" {
		return errors.New("-auto-failover requires -id: elections tiebreak on a distinct replica identity")
	}
	if cfg.shardID >= 0 && len(cfg.shardPeers) == 0 {
		return errors.New("-shard-id requires -shard-peers: the peer list fixes the shard count")
	}
	if cfg.shardID < 0 && len(cfg.shardPeers) > 0 {
		return errors.New("-shard-peers requires -shard-id: the node must know its own slot")
	}
	if cfg.shardID >= len(cfg.shardPeers) && len(cfg.shardPeers) > 0 {
		return fmt.Errorf("-shard-id %d out of range: -shard-peers lists %d shards", cfg.shardID, len(cfg.shardPeers))
	}
	if cfg.views && (cfg.dataDir == "" || cfg.replicaOf != "") {
		return errors.New("-views requires -data: view maintenance tails a durable store's WAL")
	}

	var store *hrdb.Store
	if cfg.dataDir != "" && cfg.replicaOf == "" {
		st, err := hrdb.OpenStore(cfg.dataDir)
		if err != nil {
			return err
		}
		store = st
		// A durable node restarting with peers configured may have been
		// deposed while it was down (or partitioned): probe the peers, and
		// if anyone holds a higher fencing term, quarantine the WAL suffix
		// the new lineage never saw and rejoin as that winner's replica.
		if len(cfg.peers) > 0 {
			if dep := hrdb.CheckDeposed(store, cfg.peers, rejoinProbeTimeout); dep != nil {
				quarantine, err := hrdb.Demote(store, dep, rejoinProbeTimeout)
				if err != nil {
					store.Close()
					return fmt.Errorf("rejoin after deposition by term %d: %w", dep.Term, err)
				}
				if quarantine != "" {
					fmt.Fprintf(os.Stderr, "hrserved: deposed by term %d — unreplicated WAL suffix preserved in %s\n", dep.Term, quarantine)
				} else {
					fmt.Fprintf(os.Stderr, "hrserved: deposed by term %d — no divergent WAL suffix\n", dep.Term)
				}
				fmt.Fprintf(os.Stderr, "hrserved: rejoining as replica of %s\n", dep.Primary)
				store = nil
				cfg.replicaOf = dep.Primary
			}
		}
	}

	var target hrdb.Target
	switch {
	case cfg.replicaOf != "":
		replica := hrdb.NewReplica(cfg.replicaOf, hrdb.ReplicaOptions{
			ID:              cfg.id,
			Peers:           cfg.peers,
			AutoFailover:    cfg.autoFailover,
			ElectionTimeout: cfg.electionTimeout,
			PromoteDir:      cfg.dataDir,
		})
		defer replica.Close()
		target = hrdb.ReplicaTarget{R: replica}
		// SNAP/REPL answer "not promoted" until this node wins an election
		// or is promoted; then surviving peers follow this address.
		opts.Repl = replica
		opts.LagProbe = replica.Status
		opts.Promote = func() error {
			err := replica.Promote()
			if err == nil && cfg.dataDir != "" {
				fmt.Fprintf(os.Stderr, "hrserved: promoted (term %d) — accepting writes, durable at %s\n", replica.Term(), cfg.dataDir)
			} else if err == nil {
				fmt.Fprintf(os.Stderr, "hrserved: promoted (term %d) — accepting writes (in-memory; state dies with the process)\n", replica.Term())
			}
			return err
		}
		mode := "in-memory copy"
		if cfg.dataDir != "" {
			mode = "durable promotion into " + cfg.dataDir
		}
		fmt.Fprintf(os.Stderr, "hrserved: read replica of %s (%s)\n", cfg.replicaOf, mode)
	case cfg.dataDir != "":
		// The server owns the store's lifetime: Shutdown closes it exactly
		// once after the drain, so acknowledged statements are durable.
		opts.CloseTarget = true
		target = store
		opts.Repl = hrdb.NewPrimary(store, hrdb.PrimaryOptions{})
		fmt.Fprintf(os.Stderr, "hrserved: durable database at %s (serving replication)\n", cfg.dataDir)
		if cfg.views {
			// Views persist next to the store and are maintained from its
			// committed WAL stream; the manager closes after the drain (its
			// tail loop ends when the store does).
			vm, err := hrdb.OpenViews(store, hrdb.ViewOptions{Dir: cfg.dataDir})
			if err != nil {
				store.Close()
				return fmt.Errorf("views: %w", err)
			}
			defer vm.Close()
			target = hrdb.NewViewTarget(store, vm)
			opts.Subscribe = vm
			fmt.Fprintf(os.Stderr, "hrserved: materialized views enabled (%d restored)\n", len(vm.Names()))
		}
	default:
		target = hrdb.NewMemTarget(hrdb.NewDatabase())
		fmt.Fprintln(os.Stderr, "hrserved: in-memory database (no -data; state dies with the process)")
	}

	if cfg.shardID >= 0 {
		// The shard node wraps whichever target this process serves —
		// durable store, in-memory database, or promotable replica — so a
		// shard primary's replica set gives the shard HA for free.
		opts.Shard = hrdb.NewShardNode(target, cfg.shardID, len(cfg.shardPeers))
		fmt.Fprintf(os.Stderr, "hrserved: shard %d of %d\n", cfg.shardID, len(cfg.shardPeers))
	}

	srv := hrdb.NewServer(target, opts)
	if err := srv.Start(cfg.addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hrserved: serving HQL on %s\n", srv.Addr())

	if cfg.metricsAddr != "" {
		ms, err := hrdb.ServeMetrics(cfg.metricsAddr)
		if err != nil {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
			defer cancel()
			srv.Shutdown(shutdownCtx)
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "hrserved: metrics and pprof on http://%s/\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "hrserved: %v — draining (budget %v)\n", s, cfg.drain)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Fprintln(os.Stderr, "hrserved: clean shutdown")
	return nil
}

// peerFlags collects repeatable -peer addresses.
type peerFlags struct {
	addrs []string
}

func (pf *peerFlags) String() string { return strings.Join(pf.addrs, ",") }

func (pf *peerFlags) Set(v string) error {
	if v == "" {
		return errors.New("peer address must not be empty")
	}
	pf.addrs = append(pf.addrs, v)
	return nil
}

// tenantFlags collects repeatable -tenant declarations:
// "name" (unlimited) or "name:max-inflight=N,rate=R,burst=B" (any subset).
type tenantFlags struct {
	configs []hrdb.TenantConfig
}

func (tf *tenantFlags) String() string {
	names := make([]string, len(tf.configs))
	for i, c := range tf.configs {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}

func (tf *tenantFlags) Set(v string) error {
	name, spec, _ := strings.Cut(v, ":")
	if name == "" {
		return errors.New("tenant name must not be empty")
	}
	cfg := hrdb.TenantConfig{Name: name}
	if spec != "" {
		for _, kv := range strings.Split(spec, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("tenant %s: limit %q is not key=value", name, kv)
			}
			switch key {
			case "max-inflight":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return fmt.Errorf("tenant %s: bad max-inflight %q", name, val)
				}
				cfg.Limits.MaxInflight = n
			case "rate":
				r, err := strconv.ParseFloat(val, 64)
				if err != nil || r < 0 {
					return fmt.Errorf("tenant %s: bad rate %q", name, val)
				}
				cfg.Limits.RatePerSec = r
			case "burst":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return fmt.Errorf("tenant %s: bad burst %q", name, val)
				}
				cfg.Limits.Burst = n
			default:
				return fmt.Errorf("tenant %s: unknown limit %q (want max-inflight, rate, burst)", name, key)
			}
		}
	}
	tf.configs = append(tf.configs, cfg)
	return nil
}
