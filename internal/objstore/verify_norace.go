//go:build !race

package objstore

const verifySuppliedHashes = false
