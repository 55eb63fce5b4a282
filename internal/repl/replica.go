package repl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hrdb/internal/backoff"
	"hrdb/internal/catalog"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// ReplicaOptions tune a Replica. The zero value gets defaults.
type ReplicaOptions struct {
	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
	// ReconnectBackoff is the base delay between stream attempts; the
	// actual delay is full-jitter exponential (see internal/backoff) up to
	// MaxBackoff. Default 50ms.
	ReconnectBackoff time.Duration
	// MaxBackoff caps the reconnect delay. Default 2s.
	MaxBackoff time.Duration
	// ID identifies this replica in elections: when two candidates are
	// equally caught up, the lexicographically smaller ID wins, which makes
	// the winner deterministic instead of a coin flip. AutoFailover
	// deployments must give every replica a distinct ID.
	ID string
	// Peers lists the client addresses of the other replicas. A campaign
	// probes them (LAG) to find who is most caught up and whether someone
	// already won.
	Peers []string
	// AutoFailover starts the elector: after ElectionTimeout of stream
	// silence, a booted replica campaigns to promote itself.
	AutoFailover bool
	// ElectionTimeout is the heartbeat silence that triggers a campaign. It
	// must comfortably exceed the primary's HeartbeatInterval, or healthy
	// pauses read as death. Default 2s.
	ElectionTimeout time.Duration
	// PromoteDir, when set, makes promotion durable: the replica's applied
	// state is materialized as a storage.Store rooted there (snapshot plus
	// a fresh WAL lineage one epoch past the takeover point), writes go
	// through that store's WAL, and the promoted replica serves SNAP/REPL
	// to followers on its one address. Empty keeps the in-memory promotion
	// of earlier releases: writable, but nothing outlives the process.
	PromoteDir string
}

func (o *ReplicaOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.ElectionTimeout <= 0 {
		o.ElectionTimeout = 2 * time.Second
	}
}

// ErrReadOnlyReplica rejects mutations on a replica that has not been
// promoted.
var ErrReadOnlyReplica = errors.New("repl: replica is read-only (not promoted)")

// ErrReplicaClosed reports use of a closed replica.
var ErrReplicaClosed = errors.New("repl: replica closed")

// Replica follows a primary: it bootstraps from a SNAP snapshot, replays
// the shipped WAL stream into an in-memory catalog database, and keeps
// reconnecting (with resume) until closed or promoted. All methods are safe
// for concurrent use; the database it maintains is the one served to
// read-only sessions via ReplicaTarget.
//
// With AutoFailover, the replica also runs an elector: when the stream has
// been silent past the election timeout it campaigns — probing its peers,
// standing down for anyone better positioned (or, on a tie, with a smaller
// ID), retargeting to a peer that already won — and otherwise promotes
// itself under the next fencing term.
type Replica struct {
	opts ReplicaOptions

	mu          sync.Mutex
	addr        string // current upstream; elections retarget it
	id          string
	db          *catalog.Database
	booted      bool             // db came from a snapshot (not the empty placeholder)
	needSnap    bool             // position rejected as stale (or upstream changed); re-bootstrap
	pos         storage.Position // applied position (always an out-of-bracket record boundary)
	highWater   storage.Position // primary's durable position, from SHIP/HB frames
	term        uint64           // highest fencing term seen (frames, bootstraps, elections)
	syncedAt    time.Time
	everSync    bool
	lastFrame   time.Time // last accepted frame or bootstrap: the election silence clock
	state       string    // "connecting" | "streaming" | "promoted" | "stopped"
	promoted    bool
	closed      bool
	conn        *wire.Conn // live stream connection, for severing on retarget
	applied     uint64     // records applied across all connections
	nBootstraps int        // snapshot bootstraps performed
	store       *storage.Store
	prim        *Primary // replication source once durably promoted

	ctx         context.Context // canceled on Close/Promote: aborts sleeps and the elector
	cancel      context.CancelFunc
	done        chan struct{}
	electorDone chan struct{} // nil unless AutoFailover
}

// NewReplica creates a replica following the primary at addr and starts its
// streaming loop. Until the first bootstrap completes, the replica serves
// an empty database and reports unknown staleness.
func NewReplica(addr string, opts ReplicaOptions) *Replica {
	opts.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		addr:   addr,
		id:     opts.ID,
		opts:   opts,
		db:     catalog.New(),
		state:  "connecting",
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	setStateGauge(r.state)
	go r.run()
	if opts.AutoFailover {
		r.electorDone = make(chan struct{})
		go r.elector()
	}
	return r
}

// Database returns the replica's current database. The pointer is swapped
// on snapshot bootstrap, so callers must re-fetch it per statement rather
// than caching it (hql.Session already does).
func (r *Replica) Database() *catalog.Database {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// Store returns the durable store backing a promoted replica, or nil when
// the replica is unpromoted or was promoted without a PromoteDir.
func (r *Replica) Store() *storage.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// AppliedRecords returns the number of WAL records this replica has applied
// across all connections (bracket records count when their commit applies).
func (r *Replica) AppliedRecords() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Promoted reports whether the replica has been promoted and is ready to be
// written: a durable promotion counts only once its store exists, so no
// write can land in the in-memory database the store is about to replace.
func (r *Replica) Promoted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted && (r.opts.PromoteDir == "" || r.store != nil)
}

// Term returns the highest fencing term this replica has seen.
func (r *Replica) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// SetPeers replaces the peer list election campaigns consult. It solves a
// wiring-order problem: a peer's address is often only known once its
// listener is up, after this replica was created.
func (r *Replica) SetPeers(peers []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opts.Peers = append([]string(nil), peers...)
}

// setStateLocked transitions the replica state and keeps the per-state
// gauge truthful. Callers hold r.mu.
func (r *Replica) setStateLocked(state string) {
	r.state = state
	setStateGauge(state)
}

// Status is a replica's full replication status — exactly what its LAG
// answer carries: its position and staleness plus the failover identity
// (term, ID, and its upstream).
type Status = wire.LagInfo

// Status reports the replica's replication status for LAG answers, for
// lag-bounded routing, and for election probes.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Staleness: -1,
		Epoch:     r.pos.Epoch,
		Offset:    r.pos.Offset,
		State:     r.state,
		Term:      r.term,
		ID:        r.id,
		Source:    r.addr,
	}
	if r.promoted {
		// A promoted replica is the authoritative copy: nothing to lag
		// behind, no upstream.
		st.Staleness = 0
		st.Source = ""
	} else if r.everSync {
		st.Staleness = time.Since(r.syncedAt)
	}
	return st
}

// Promote stops following and flips the replica writable under the next
// fencing term. Promotion is manual failover — the caller has decided the
// old primary is gone. Whatever committed state the replica had applied is
// the new authoritative state; an unfinished transaction bracket in flight
// is discarded, exactly as a primary crash recovery would discard it.
func (r *Replica) Promote() error {
	r.mu.Lock()
	term := r.term + 1
	r.mu.Unlock()
	return r.promoteWithTerm(term)
}

// promoteWithTerm is promotion under an explicit fencing term (an election
// win carries max-seen-term+1; manual Promote uses own-term+1). With a
// PromoteDir the promotion is durable: the applied state is materialized as
// a store whose WAL lineage starts one epoch past the takeover point, so
// surviving followers parked in the old lineage re-bootstrap rather than
// resume into divergence. The old upstream is then told, best effort, that
// it has been deposed.
func (r *Replica) promoteWithTerm(term uint64) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrReplicaClosed
	}
	if r.promoted {
		r.mu.Unlock()
		return nil
	}
	if term <= r.term {
		term = r.term + 1
	}
	r.promoted = true
	r.term = term
	takeover := r.pos
	oldAddr := r.addr
	r.setStateLocked("promoted")
	r.mu.Unlock()
	r.cancel() // ends the stream: every wait in streamOnce is on r.ctx
	<-r.done

	if r.opts.PromoteDir != "" {
		spec := storage.SnapshotDatabase(r.Database())
		spec.LogEpoch = takeover.Epoch + 1
		spec.PrimaryTerm = term
		spec.TakeoverEpoch, spec.TakeoverOffset = takeover.Epoch, takeover.Offset
		st, err := storage.Create(r.opts.PromoteDir, spec, storage.Options{})
		if err != nil {
			return fmt.Errorf("repl: durable promotion: %w", err)
		}
		r.mu.Lock()
		r.db = st.Database()
		r.store = st
		r.prim = NewPrimary(st, PrimaryOptions{})
		r.mu.Unlock()
	}
	metricPromotions.Inc()
	// Best effort: tell the deposed upstream directly, so it fences even if
	// no follower ever contacts it. Losing this race (or the old primary
	// being dead) is fine — the term checks catch it everywhere else.
	go fenceRemote(oldAddr, term, r.opts.DialTimeout)
	return nil
}

// Snapshot implements the server's ReplSource hook (structurally): a
// promoted replica serves bootstrap snapshots from its durable store so the
// rest of the fleet — including the deposed primary, rejoining — can follow
// it. Unpromoted (or promoted without a PromoteDir), there is no durable
// lineage to serve.
func (r *Replica) Snapshot() ([]byte, error) {
	prim := r.primary()
	if prim == nil {
		return nil, ErrReadOnlyReplica
	}
	return prim.Snapshot()
}

// ServeStream implements the server's ReplSource hook (structurally); see
// Snapshot.
func (r *Replica) ServeStream(ctx context.Context, from wire.StreamPos, send func(typ byte, payload []byte) error) error {
	prim := r.primary()
	if prim == nil {
		return fmt.Errorf("%w: not promoted: no replication source here", wire.ErrFeedStale)
	}
	return prim.ServeStream(ctx, from, send)
}

// Ack implements the server's ReplSource hook (structurally); see Snapshot.
func (r *Replica) Ack(pos wire.StreamPos) {
	if prim := r.primary(); prim != nil {
		prim.Ack(pos)
	}
}

// primary returns the replication source of a durably promoted replica.
func (r *Replica) primary() *Primary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prim
}

// Close stops the replica (and, if it was durably promoted, closes its
// store). Idempotent.
func (r *Replica) Close() error {
	r.mu.Lock()
	first := !r.closed
	if first && !r.promoted {
		r.setStateLocked("stopped")
	}
	r.closed = true
	st := r.store
	r.mu.Unlock()
	r.cancel()
	<-r.done
	if r.electorDone != nil {
		<-r.electorDone
	}
	if first && st != nil {
		if err := st.Close(); err != nil && !errors.Is(err, storage.ErrStoreClosed) {
			return err
		}
	}
	return nil
}

func (r *Replica) stopping() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed || r.promoted
}

// run is the reconnect loop: stream until the connection fails, back off
// (full jitter, capped), retry. A stale rejection re-bootstraps immediately —
// waiting won't make a GC'd WAL segment reappear.
func (r *Replica) run() {
	defer close(r.done)
	pol := backoff.Policy{Base: r.opts.ReconnectBackoff, Max: r.opts.MaxBackoff}
	attempt := 0
	for !r.stopping() {
		err := r.streamOnce()
		if r.stopping() {
			return
		}
		r.mu.Lock()
		r.setStateLocked("connecting")
		r.mu.Unlock()
		metricReconnects.Inc()
		if errors.Is(err, errStale) {
			metricStaleRestarts.Inc()
			attempt = 0
			continue
		}
		if backoff.Sleep(r.ctx, pol.Delay(attempt, 0)) != nil {
			return
		}
		attempt++
	}
}

// retarget switches the replica to follow a newly promoted peer. The new
// primary's WAL lineage is disjoint from the old one, so the next stream
// attempt re-bootstraps; the silence clock restarts so the elector gives
// the new upstream a full timeout before judging it.
func (r *Replica) retarget(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.promoted || addr == "" || addr == r.addr {
		return
	}
	r.addr = addr
	r.needSnap = true
	r.lastFrame = time.Now()
	if r.conn != nil {
		r.conn.Close()
	}
	metricRetargets.Inc()
}

// elector campaigns for promotion whenever the stream goes quiet. Campaign
// timing is jittered (uniform in [ET/2, 3ET/2) on top of the timeout
// check) so replicas that lost the same primary at the same instant don't
// promote in lockstep.
func (r *Replica) elector() {
	defer close(r.electorDone)
	et := r.opts.ElectionTimeout
	for {
		d := et/2 + time.Duration(rand.Int63n(int64(et)))
		t := time.NewTimer(d)
		select {
		case <-r.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		if !r.quiet(et) {
			continue
		}
		r.campaign()
		if r.Promoted() {
			return
		}
	}
}

// quiet reports whether the replica is booted, unpromoted, and has heard
// nothing from its upstream for at least the election timeout. A replica
// that never booted has no state worth promoting; one that heard a frame
// recently has a live primary.
func (r *Replica) quiet(et time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.promoted || !r.booted {
		return false
	}
	return !r.lastFrame.IsZero() && time.Since(r.lastFrame) >= et
}

// campaign decides this replica's move after election-timeout silence:
// stand down if any reachable peer is better positioned (or equally
// positioned with a smaller ID — the deterministic tiebreak), retarget to a
// peer that already won a term at or past ours (its client address is the
// one to follow), otherwise self-promote with a term one past the highest
// seen anywhere. Unreachable peers don't vote: in a partition, the
// reachable side elects from the candidates it can compare, and fencing
// terms resolve any collision when the partition heals.
func (r *Replica) campaign() {
	r.mu.Lock()
	myPos, myTerm, myID := r.pos, r.term, r.id
	peers := r.opts.Peers
	r.mu.Unlock()
	metricElections.Inc()
	maxTerm := myTerm
	for _, peer := range peers {
		st, err := probePeer(peer, r.opts.DialTimeout)
		if err != nil {
			continue
		}
		if st.Term > maxTerm {
			maxTerm = st.Term
		}
		if st.State == "promoted" && st.Term >= myTerm {
			r.retarget(peer)
			return
		}
		peerPos := storage.Position{Epoch: st.Epoch, Offset: st.Offset}
		if myPos.Before(peerPos) || (peerPos == myPos && st.ID != "" && st.ID < myID) {
			return
		}
	}
	// Probing took time; a primary heard from meanwhile cancels the win.
	if !r.quiet(r.opts.ElectionTimeout) {
		return
	}
	_ = r.promoteWithTerm(maxTerm + 1)
}

// streamOnce runs one connection's worth of replication: dial, bootstrap if
// needed, request the stream at the resume position, and apply frames until
// something breaks.
func (r *Replica) streamOnce() error {
	r.mu.Lock()
	addr := r.addr
	r.mu.Unlock()
	cc, err := dial(r.ctx, addr, r.opts.DialTimeout, maxSnapshotBytes)
	if err != nil {
		return err
	}
	defer cc.Close()

	r.mu.Lock()
	if r.closed || r.promoted {
		r.mu.Unlock()
		return ErrReplicaClosed
	}
	r.conn = cc
	needSnap := !r.booted || r.needSnap
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if r.conn == cc {
			r.conn = nil
		}
		r.mu.Unlock()
	}()

	if needSnap {
		if err := r.bootstrap(cc); err != nil {
			return err
		}
	}

	r.mu.Lock()
	db, start := r.db, r.pos
	r.setStateLocked("streaming")
	r.mu.Unlock()
	return r.follow(cc, db, start)
}

// stream is a follower's read state across the REPL requests of one
// connection.
type stream struct {
	rd   *storage.Reader
	next storage.Position // of the next byte expected from the wire
	// counted is how many of rd's records r.applied already includes.
	// Records count when the resume position moves past them, and a
	// reconnect starts a new reader there, so the ones inside a bracket open
	// at a sever are counted once — exactly-once accounting.
	counted uint64
}

// follow requests the stream from start on cc and applies it until
// something breaks. A request whose queue overflowed is sent again from the
// next byte expected, and the reader keeps what it buffered, so each
// request gains at least a queue of frames however far the applier falls
// behind — even inside a bracket longer than the queue.
func (r *Replica) follow(cc *wire.Conn, db *catalog.Database, start storage.Position) error {
	s := &stream{rd: storage.NewReader(start), next: start}
	for {
		r.mu.Lock()
		term := r.term
		r.mu.Unlock()
		// The REPL request announces our highest term: a deposed primary
		// answering it learns of its deposition and fences itself.
		fd, err := cc.Open(wire.TypeRepl, wire.AppendStreamPos(nil, streamPos(term, s.next)), maxStreamFrame)
		if err != nil {
			return err
		}
		if err := r.applyStream(fd, db, s); !errors.Is(err, wire.ErrOverflow) {
			return err
		}
	}
}

// bootstrap fetches a SNAP snapshot over the open connection and installs
// it as the replica's database and resume position.
func (r *Replica) bootstrap(cc *wire.Conn) error {
	begin := time.Now()
	payload, err := cc.Do(r.ctx, wire.TypeSnap, 0, 0, nil)
	var refused *wire.Error
	if errors.As(err, &refused) {
		// A "stale" refusal means the upstream is itself an unpromoted
		// replica (a mid-election retarget raced the winner's promotion);
		// the run loop tries again later.
		return fmt.Errorf("repl: SNAP refused: %w", err)
	}
	if err != nil {
		return err
	}
	boot, err := decodeBootstrap(payload)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if boot.Term < r.term {
		cur := r.term
		r.mu.Unlock()
		return fmt.Errorf("repl: snapshot from deposed primary (term %d < %d)", boot.Term, cur)
	}
	db, err := storage.BuildDatabase(boot.Spec)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("repl: bad snapshot: %w", err)
	}
	r.db = db
	r.booted = true
	r.needSnap = false
	r.term = boot.Term
	r.pos = storage.Position{Epoch: boot.Epoch, Offset: boot.Offset}
	r.highWater = r.pos
	r.everSync = false // not synced until the stream proves it
	r.lastFrame = time.Now()
	r.nBootstraps++
	r.mu.Unlock()
	metricBootstraps.Inc()
	metricBootstrapNS.ObserveDuration(time.Since(begin))
	return nil
}

// adoptFrameTerm folds one stream frame's term into the replica: higher
// terms are adopted, the silence clock restarts, and frames from a term
// below the highest seen are refused — a deposed primary must not keep
// feeding us history the new one will contradict.
func (r *Replica) adoptFrameTerm(term uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if term < r.term {
		return fmt.Errorf("repl: frame from deposed primary (term %d < %d)", term, r.term)
	}
	r.term = term
	r.lastFrame = time.Now()
	return nil
}

// applyStream consumes the frames of one REPL request: SHIP payloads go to
// s's reader and every committed change it yields is applied; each frame is
// acknowledged on the feed. The request asked for the stream from s.next;
// every byte that arrives is accounted against it, so any gap or overlap in
// what the primary sends is detected as a hard desync rather than silently
// applied.
func (r *Replica) applyStream(fd *wire.Feed, db *catalog.Database, s *stream) error {
	rd := s.rd
	for {
		f, err := fd.Next(r.ctx)
		if err != nil {
			return err
		}
		frame, err := decodeStreamFrame(f)
		var refused *wire.Error
		if errors.As(err, &refused) && refused.Code == "stale" {
			r.mu.Lock()
			r.needSnap = true
			r.mu.Unlock()
			return fmt.Errorf("%w: %s", errStale, refused.Msg)
		}
		if err != nil {
			return fmt.Errorf("repl: stream: %w", err)
		}
		if err := r.adoptFrameTerm(frame.at.Term); err != nil {
			return err
		}
		at := storage.Position{Epoch: frame.at.Epoch, Offset: frame.at.Offset}
		switch frame.typ {
		case wire.TypeShip:
			if at != s.next {
				return fmt.Errorf("%w: SHIP at %d/%d, expected %d/%d",
					wire.ErrProtocol, at.Epoch, at.Offset, s.next.Epoch, s.next.Offset)
			}
			rd.Feed(frame.chunk)
			s.next.Offset += int64(len(frame.chunk))
			for {
				c, ok, err := rd.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if err := c.Apply(db); err != nil {
					return fmt.Errorf("repl: apply at %d/%d: %w", c.Pos.Epoch, c.Pos.Offset, err)
				}
			}
			// The resume position is the reader's: it advances only at
			// out-of-bracket boundaries, past state the stream may resume
			// after.
			r.mu.Lock()
			if resume := rd.Position(); r.pos.Before(resume) {
				metricAppliedBytes.Add(uint64(resume.Offset - r.pos.Offset))
				n := rd.Records()
				r.applied += n - s.counted
				metricAppliedRecs.Add(n - s.counted)
				s.counted = n
				r.pos = resume
			}
			r.mu.Unlock()
			r.observe(s.next, rd.Pending())
		case wire.TypeHB:
			if at.Epoch == s.next.Epoch && at.Offset < s.next.Offset {
				return fmt.Errorf("%w: HB at %d/%d behind stream position %d/%d",
					wire.ErrProtocol, at.Epoch, at.Offset, s.next.Epoch, s.next.Offset)
			}
			r.observe(at, rd.Pending())
		case wire.TypeRotate:
			// A rotation is only legal at a clean point; anything else is a
			// desync.
			if err := rd.Rotate(at.Epoch); err != nil {
				return fmt.Errorf("%w: ROTATE: %v", wire.ErrProtocol, err)
			}
			s.next = rd.Position()
			r.mu.Lock()
			r.pos = s.next
			if !r.highWater.Before(s.next) {
				// Rotation supersedes any high-water mark from the old epoch.
				r.highWater = s.next
			}
			r.mu.Unlock()
			r.observe(s.next, 0)
		}
		if err := r.ack(fd); err != nil {
			return err
		}
	}
}

// observe folds a frame's durability information into the lag accounting:
// durable high-water, catch-up detection, and the lag gauges. The byte-lag
// gauge distinguishes unknown (-1: the high-water mark is in another epoch,
// so no byte distance exists) from caught up (0) — conflating them made an
// arbitrarily stale replica indistinguishable from a current one.
func (r *Replica) observe(durable storage.Position, pending int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.highWater.Before(durable) {
		r.highWater = durable
	}
	if !r.pos.Before(r.highWater) {
		// Applied everything the primary has made durable: caught up.
		r.syncedAt = time.Now()
		r.everSync = true
		metricLagBytes.Set(0)
	} else if r.highWater.Epoch == r.pos.Epoch {
		metricLagBytes.Set(r.highWater.Offset - r.pos.Offset)
	} else {
		metricLagBytes.Set(-1)
	}
	metricLagRecords.Set(int64(pending))
}

// ack reports the current resume position (and our term) to the primary
// on the stream.
func (r *Replica) ack(fd *wire.Feed) error {
	r.mu.Lock()
	pos, term := r.pos, r.term
	r.mu.Unlock()
	return fd.Send(wire.TypeAck, wire.AppendStreamPos(nil, streamPos(term, pos)))
}
