//go:build race

package objstore

// verifySuppliedHashes: the put path indexes a page under the hash its
// caller supplies (PutPages) without computing it. Under the race
// detector it computes it after all and panics on a mismatch, so every
// race-enabled test run checks every caller's hashes; it is an
// assertion compiled into the race leg, not a mode.
const verifySuppliedHashes = true
