package delta

import (
	"fmt"
	"sync"
)

// DefaultMaxTail is how many epoch deltas a Log retains before compacting
// the oldest into its base snapshot. A follower whose acked epoch is within
// the tail resyncs with deltas; one behind the horizon needs a snapshot
// push (the recovery path).
const DefaultMaxTail = 64

// Log is the append-only, compacting delta log the leader maintains and a
// warm standby tails: a base snapshot (the state at the compaction horizon)
// plus a contiguous run of epoch deltas up to the head. All methods are
// safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	maxTail int
	base    *State   // state at the horizon
	head    *State   // base + all tail deltas applied
	tail    []*Delta // tail[i].FromEpoch == base.Epoch + i (contiguous)
}

// NewLog returns an empty log (horizon and head at epoch 0) retaining up to
// maxTail deltas; maxTail <= 0 selects DefaultMaxTail.
func NewLog(maxTail int) *Log {
	if maxTail <= 0 {
		maxTail = DefaultMaxTail
	}
	return &Log{maxTail: maxTail, base: NewState(), head: NewState()}
}

// Head returns a deep copy of the newest state.
func (l *Log) Head() *State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head.Clone()
}

// HeadEpoch returns the newest epoch.
func (l *Log) HeadEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head.Epoch
}

// Horizon returns the compaction horizon: the oldest epoch from which the
// log can still serve a pure delta replay.
func (l *Log) Horizon() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Epoch
}

// Append applies d at the head and retains it, compacting the oldest tail
// delta into the base snapshot when the tail exceeds maxTail. d must
// continue the log (FromEpoch == head epoch, ToEpoch > FromEpoch) and apply
// cleanly; on error the log is unchanged.
func (l *Log) Append(d *Delta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.Snapshot {
		return fmt.Errorf("delta: cannot append a snapshot to the log")
	}
	if d.FromEpoch != l.head.Epoch {
		return fmt.Errorf("delta: append from epoch %d, head is %d", d.FromEpoch, l.head.Epoch)
	}
	if d.ToEpoch <= d.FromEpoch {
		return fmt.Errorf("delta: append does not advance the epoch (%d → %d)", d.FromEpoch, d.ToEpoch)
	}
	next := l.head.Clone()
	if err := d.Apply(next); err != nil {
		return err
	}
	l.head = next
	l.tail = append(l.tail, d)
	for len(l.tail) > l.maxTail {
		if err := l.tail[0].Apply(l.base); err != nil {
			// The tail applied at the head once already; failing here means
			// internal corruption, not caller error.
			return fmt.Errorf("delta: compaction failed: %w", err)
		}
		l.tail = l.tail[1:]
	}
	return nil
}

// Reset reinitializes the log to the given state (a standby promoting after
// replaying a snapshot, or a leader bootstrapping from the spec). The log
// starts with an empty tail at that state's epoch.
func (l *Log) Reset(s *State) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = s.Clone()
	l.head = s.Clone()
	l.tail = nil
}

// Since returns the contiguous deltas that carry a follower from epoch
// `from` to the head. ok is false when `from` is behind the compaction
// horizon (or ahead of the head) — the caller must fall back to a snapshot
// push. A follower already at the head gets an empty slice, ok = true.
func (l *Log) Since(from uint64) (ds []*Delta, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base.Epoch || from > l.head.Epoch {
		return nil, false
	}
	for _, d := range l.tail {
		if d.FromEpoch >= from {
			ds = append(ds, d)
		}
	}
	return ds, true
}

// Snapshot returns the head state as a snapshot delta — the recovery push.
func (l *Log) Snapshot() *Delta {
	l.mu.Lock()
	defer l.mu.Unlock()
	return SnapshotOf(l.head)
}
