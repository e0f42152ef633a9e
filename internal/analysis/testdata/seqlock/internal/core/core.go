// Package core is a stub of the real internal/core: a shard's controller
// is shared state a seqread function must not store to.
package core

type Controller struct{}
