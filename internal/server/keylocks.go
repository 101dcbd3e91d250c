package server

import "sync"

// keyLocks is a table of per-object reader/writer locks whose entries
// live only while someone holds or waits on them: every acquirer counts
// itself in before it blocks and out after it unlocks, and the last one
// out removes the entry. The table therefore tracks requests in flight,
// not names ever asked for — a scan of client-chosen 404 names leaves it
// empty — and two goroutines can never hold different mutexes for one
// key, because an entry is only replaced once nobody references it.
// Retired entries are recycled, so a steady-state request allocates none.
//
// Store and Gateway embed it; mu costs a request two acquisitions (in and
// out). Gateway locks are process-local — cross-gateway ordering is by
// generation numbers, not locks.
type keyLocks struct {
	mu    sync.Mutex
	locks map[string]*keyLock
	free  []*keyLock // retired entries, at most one per peak concurrent holder
}

// keyLock is one held (or awaited) entry; the holder releases it with
// Unlock or RUnlock, whichever matches how it was taken.
type keyLock struct {
	rw   sync.RWMutex
	t    *keyLocks
	key  string
	refs int // holders + waiters, guarded by t.mu
}

// ref returns key's entry with the caller counted in.
func (t *keyLocks) ref(key string) *keyLock {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.locks[key]
	if l == nil {
		if n := len(t.free); n > 0 {
			l, t.free = t.free[n-1], t.free[:n-1]
		} else {
			l = &keyLock{t: t}
		}
		l.key = key
		if t.locks == nil {
			t.locks = map[string]*keyLock{}
		}
		t.locks[key] = l
	}
	l.refs++
	return l
}

// unref counts the caller out, retiring the entry if it was the last.
func (l *keyLock) unref() {
	t := l.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if l.refs--; l.refs == 0 {
		delete(t.locks, l.key)
		l.key = ""
		t.free = append(t.free, l)
	}
}

// lockKey write-locks key.
func (t *keyLocks) lockKey(key string) *keyLock {
	l := t.ref(key)
	l.rw.Lock()
	return l
}

// rlockKey read-locks key.
func (t *keyLocks) rlockKey(key string) *keyLock {
	l := t.ref(key)
	l.rw.RLock()
	return l
}

func (l *keyLock) Unlock()  { l.rw.Unlock(); l.unref() }
func (l *keyLock) RUnlock() { l.rw.RUnlock(); l.unref() }
