// Fixture for the lockdiscipline analyzer: miniatures of the sharded
// runtime's lock shapes.
package shard

import "sync"

type pool struct {
	mu     sync.Mutex
	queues [][]int
}

// good: lock with deferred unlock covers every exit, including panics.
func (p *pool) next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queues) == 0 {
		return -1
	}
	return p.queues[0][0]
}

// good: straight-line lock/unlock.
func (p *pool) size() int {
	p.mu.Lock()
	n := len(p.queues)
	p.mu.Unlock()
	return n
}

// good: every branch unlocks before returning (the guard.Acquire shape).
func (p *pool) take() (int, bool) {
	p.mu.Lock()
	if len(p.queues) == 0 {
		p.mu.Unlock()
		return 0, false
	}
	q := p.queues[0]
	if len(q) == 0 {
		p.mu.Unlock()
		return 0, false
	}
	p.mu.Unlock()
	return q[0], true
}

// leakyReturn exits with the lock held on the early-return path: flagged.
func (p *pool) leakyReturn() int {
	p.mu.Lock() // want `p.mu locked here is still held on the path returning at line`
	if len(p.queues) == 0 {
		return -1
	}
	n := len(p.queues)
	p.mu.Unlock()
	return n
}

// doubleLock re-acquires the lock it already holds: self-deadlock.
func (p *pool) doubleLock() {
	p.mu.Lock()
	p.mu.Lock() // want `p.mu is acquired at line \d+ while already held`
	p.mu.Unlock()
	p.mu.Unlock()
}

type index struct {
	mu sync.RWMutex
	m  map[string]int
}

// good: read lock with deferred read unlock.
func (ix *index) get(k string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.m[k]
}

// readThenWrite upgrades while read-held: a writer queued between the two
// acquisitions deadlocks this goroutine.
func (ix *index) readThenWrite(k string) {
	ix.mu.RLock()
	ix.mu.Lock() // want `ix.mu is acquired at line \d+ while already held`
	ix.m[k] = 0
	ix.mu.Unlock()
	ix.mu.RUnlock()
}

// handoff returns holding the lock by design: waived with a reason.
func (p *pool) handoff() {
	p.mu.Lock() //trajlint:allow lockdiscipline -- fixture: lock handed to caller, released by closeLocked
}

func (p *pool) closeLocked() {
	p.mu.Unlock()
}

// stale carries a reason-less waiver: the directive itself is flagged and
// the leak still reported.
func (p *pool) stale() {
	//trajlint:allow lockdiscipline // want `malformed trajlint directive`
	p.mu.Lock() // want `p.mu locked here is still held`
}
