package group

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"stableleader/id"
)

func TestUpsertNewMember(t *testing.T) {
	tb := NewTable()
	if !tb.Upsert(Member{ID: "a", Incarnation: 1, Candidate: true}) {
		t.Fatal("inserting a new member should report a change")
	}
	m, ok := tb.Get("a")
	if !ok || !m.Candidate || m.Incarnation != 1 {
		t.Fatalf("Get(a) = %+v, %v", m, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestUpsertIdempotent(t *testing.T) {
	tb := NewTable()
	row := Member{ID: "a", Incarnation: 1, Candidate: true}
	tb.Upsert(row)
	v := tb.Version()
	if tb.Upsert(row) {
		t.Error("re-inserting the identical row should not report a change")
	}
	if tb.Version() != v {
		t.Error("version must not change on a no-op upsert")
	}
}

func TestNewerIncarnationWins(t *testing.T) {
	tb := NewTable()
	tb.Upsert(Member{ID: "a", Incarnation: 1, Candidate: true, Left: true})
	if !tb.Upsert(Member{ID: "a", Incarnation: 2}) {
		t.Fatal("newer incarnation should change the table")
	}
	m, _ := tb.Get("a")
	if m.Incarnation != 2 || m.Left || m.Candidate {
		t.Errorf("newer incarnation should fully replace the row, got %+v", m)
	}
	// An old incarnation arriving late must be ignored.
	if tb.Upsert(Member{ID: "a", Incarnation: 1, Candidate: true}) {
		t.Error("stale incarnation should be ignored")
	}
}

func TestTombstoneSticky(t *testing.T) {
	tb := NewTable()
	tb.Upsert(Member{ID: "a", Incarnation: 5})
	if !tb.Upsert(Member{ID: "a", Incarnation: 5, Left: true}) {
		t.Fatal("marking left should change the table")
	}
	// Left cannot be undone within the same incarnation.
	tb.Upsert(Member{ID: "a", Incarnation: 5})
	m, _ := tb.Get("a")
	if !m.Left {
		t.Error("left tombstone must be sticky within an incarnation")
	}
}

func TestActiveExcludesTombstones(t *testing.T) {
	tb := NewTable()
	tb.Upsert(Member{ID: "b", Incarnation: 1})
	tb.Upsert(Member{ID: "a", Incarnation: 1})
	tb.Upsert(Member{ID: "c", Incarnation: 1, Left: true})
	act := tb.Active()
	if len(act) != 2 || act[0].ID != "a" || act[1].ID != "b" {
		t.Errorf("Active() = %+v, want sorted [a b]", act)
	}
	if len(tb.Snapshot()) != 3 {
		t.Errorf("Snapshot should include tombstones")
	}
}

func TestSnapshotSorted(t *testing.T) {
	tb := NewTable()
	for _, p := range []id.Process{"z", "m", "a", "q"} {
		tb.Upsert(Member{ID: p, Incarnation: 1})
	}
	snap := tb.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID }) {
		t.Errorf("Snapshot not sorted: %+v", snap)
	}
}

// randomRows builds a small random batch of member rows over few ids, so
// collisions are common.
func randomRows(r *rand.Rand) []Member {
	ids := []id.Process{"a", "b", "c"}
	n := r.Intn(6)
	rows := make([]Member, n)
	for i := range rows {
		rows[i] = Member{
			ID:          ids[r.Intn(len(ids))],
			Incarnation: int64(r.Intn(3)),
			Candidate:   r.Intn(2) == 0,
			Left:        r.Intn(2) == 0,
		}
	}
	return rows
}

// merge upserts a batch of rows (a HELLO payload, as the node applies it)
// and reports whether anything changed.
func (t *Table) merge(rows []Member) bool {
	changed := false
	for _, m := range rows {
		if t.Upsert(m) {
			changed = true
		}
	}
	return changed
}

// TestMergeOrderIndependent is the CRDT property HELLO gossip relies on:
// merging any two batches in either order converges to the same table.
func TestMergeOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		x, y := randomRows(r), randomRows(r)
		ab, ba := NewTable(), NewTable()
		ab.merge(x)
		ab.merge(y)
		ba.merge(y)
		ba.merge(x)
		return reflect.DeepEqual(ab.Snapshot(), ba.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMergeIdempotent: merging the same batch twice equals merging once.
func TestMergeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		x := randomRows(r)
		once, twice := NewTable(), NewTable()
		once.merge(x)
		twice.merge(x)
		if twice.merge(x) {
			return false // second identical merge must be a no-op
		}
		return reflect.DeepEqual(once.Snapshot(), twice.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestGossipConvergence: any set of tables pairwise exchanging snapshots
// converges to the union.
func TestGossipConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tables := make([]*Table, 4)
	for i := range tables {
		tables[i] = NewTable()
		tables[i].merge(randomRows(r))
	}
	// A few random gossip rounds, then a full round-robin to finish.
	for i := 0; i < 20; i++ {
		a, b := tables[r.Intn(4)], tables[r.Intn(4)]
		b.merge(a.Snapshot())
	}
	for i := range tables {
		for j := range tables {
			tables[j].merge(tables[i].Snapshot())
		}
	}
	want := tables[0].Snapshot()
	for i, tb := range tables {
		if !reflect.DeepEqual(tb.Snapshot(), want) {
			t.Fatalf("table %d diverged:\n%v\nvs\n%v", i, tb.Snapshot(), want)
		}
	}
}
