// Package group implements the Group Maintenance module of the service
// architecture (Section 4): it builds and maintains, for each group, the
// set of processes that are currently in the group, together with their
// incarnations and candidacy flags.
//
// The membership table is a state-based CRDT: rows merge commutatively and
// idempotently (the newest incarnation wins; within an incarnation the
// "left" tombstone and the candidacy flag are sticky), so HELLO gossip can
// spread tables in any order over lossy links and every process converges
// to the same view.
package group

import (
	"cmp"
	"slices"

	"stableleader/id"
)

// Member is one row of the membership table.
type Member struct {
	// ID is the process identifier.
	ID id.Process
	// Incarnation distinguishes successive lifetimes of the same process.
	// The service uses the start timestamp (ns), which is strictly
	// increasing across restarts.
	Incarnation int64
	// Candidate reports whether this incarnation competes for leadership.
	Candidate bool
	// Left marks a voluntary departure of this incarnation.
	Left bool
}

// supersedes reports whether row a should replace row b in the table.
func supersedes(a, b Member) bool { return a.Incarnation > b.Incarnation }

// mergeSame combines two rows of the same incarnation: tombstones and
// candidacy are sticky, which makes the merge commutative.
func mergeSame(a, b Member) Member {
	a.Left = a.Left || b.Left
	a.Candidate = a.Candidate || b.Candidate
	return a
}

// Table is one group's membership view.
type Table struct {
	rows    map[id.Process]Member
	version uint64
}

// NewTable returns an empty membership table.
func NewTable() *Table {
	return &Table{rows: make(map[id.Process]Member)}
}

// Version increases every time the table content changes; hosts use it to
// detect membership changes cheaply.
func (t *Table) Version() uint64 { return t.version }

// Upsert merges one row and reports whether the table changed.
func (t *Table) Upsert(m Member) bool {
	cur, ok := t.rows[m.ID]
	switch {
	case !ok || supersedes(m, cur):
		t.rows[m.ID] = m
	case supersedes(cur, m):
		return false
	default:
		merged := mergeSame(cur, m)
		if merged == cur {
			return false
		}
		t.rows[m.ID] = merged
	}
	t.version++
	return true
}

// Get returns the row for p.
func (t *Table) Get(p id.Process) (Member, bool) {
	m, ok := t.rows[p]
	return m, ok
}

// Snapshot returns every row (including tombstones), sorted by id, suitable
// for gossiping.
func (t *Table) Snapshot() []Member {
	out := make([]Member, 0, len(t.rows))
	for _, m := range t.rows {
		out = append(out, m)
	}
	sortMembers(out)
	return out
}

// Active returns the rows that have not left, sorted by id. These are the
// processes currently considered "in the group"; their liveness is judged
// separately by the failure detector.
func (t *Table) Active() []Member {
	out := make([]Member, 0, len(t.rows))
	for _, m := range t.rows {
		if !m.Left {
			out = append(out, m)
		}
	}
	sortMembers(out)
	return out
}

// Len returns the number of rows, tombstones included.
func (t *Table) Len() int { return len(t.rows) }

// sortMembers orders rows by process id (unique per table, so the order is
// total); deterministic iteration order is what keeps simulations
// reproducible.
func sortMembers(ms []Member) {
	slices.SortFunc(ms, func(a, b Member) int { return cmp.Compare(a.ID, b.ID) })
}
