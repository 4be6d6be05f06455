package mempool

// SetEnabled switches pooling on or off globally, as HPU_NOPOOL=1 does at
// start-up. Buffers already leased remain valid either way; disabling only
// changes what Get and Put do next.
func SetEnabled(on bool) { enabled.Store(on) }

// SetPoison switches the use-after-put detector on or off, as
// HPU_POOLPOISON=1 does at start-up.
func SetPoison(on bool) { poisoning.Store(on) }
