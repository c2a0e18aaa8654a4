package lockcheck

import "sync"

// Function-effect annotations cross call boundaries: holds is a call-site
// precondition, and acquires/releases transfer the lock in and out of helper
// functions. Every spec names one lock; there is no wildcard.

type shard struct {
	mu    sync.Mutex //detvet:lockorder 50
	items []int      //detvet:guardedby mu
}

// fillLocked appends under the caller's lock.
//
//detvet:holds sh.mu
func fillLocked(sh *shard, v int) {
	sh.items = append(sh.items, v)
}

// lockShard hands the locked shard back to the caller.
//
//detvet:acquires sh.mu
func lockShard(sh *shard) {
	sh.mu.Lock()
}

// unlockShard releases a shard locked by lockShard.
//
//detvet:releases sh.mu
func unlockShard(sh *shard) {
	sh.mu.Unlock()
}

func callsHelperLocked(sh *shard) {
	sh.mu.Lock()
	fillLocked(sh, 1)
	sh.mu.Unlock()
}

func callsHelperUnlocked(sh *shard) {
	fillLocked(sh, 2) // want "requires shard.mu held"
}

func usesAcquireRelease(sh *shard) {
	lockShard(sh)
	sh.items = nil
	unlockShard(sh)
}

func forgetsRelease(sh *shard) {
	lockShard(sh) // want "may still be held when forgetsRelease returns"
	sh.items = nil
}

// lockSome cannot name what it takes.
//
//detvet:acquires * // want "lock spec .\*. is not a receiver field"
func (sh *shard) lockSome() {}

// aliasLock binds the lock through a local alias; the canonical key must
// match the direct spelling.
func aliasLock(sh *shard) {
	m := &sh.mu
	m.Lock()
	sh.items = append(sh.items, 3)
	m.Unlock()
}
