package repl

import (
	"hrdb/internal/catalog"
	"hrdb/internal/hql"
)

// ReplicaTarget adapts a Replica to hql.Target so a server can run
// read-only sessions against it. It is one ApplyTx: refused with
// ErrReadOnlyReplica until the replica is promoted — an empty op list
// included, which is how a session asks before attaching a `… AS` result —
// and delegated afterwards, when the promoted replica is the new
// authoritative copy.
//
// Database() re-fetches the replica's current database on every call
// (hql.Session does the same per statement), so a snapshot re-bootstrap
// swapping the database pointer takes effect at the next statement.
type ReplicaTarget struct{ R *Replica }

// Database returns the replica's current database.
func (t ReplicaTarget) Database() *catalog.Database { return t.R.Database() }

// ApplyTx implements hql.Target. A durably promoted replica writes through
// its store (WAL first, fencing enforced); one promoted without a
// PromoteDir mutates its in-memory database.
func (t ReplicaTarget) ApplyTx(ops []hql.TxOp) error {
	if !t.R.Promoted() {
		return ErrReadOnlyReplica
	}
	if st := t.R.Store(); st != nil {
		return st.ApplyTx(ops)
	}
	return t.R.Database().ApplyOps(ops)
}
