package gemmec

// Codec is the abstract erasure code the rest of the system programs
// against: the encode/reconstruct entry points plus the geometry accessors
// needed to size buffers. *Code satisfies it, and so can any alternative
// coder (a baseline, a mock, a remote proxy), which lets integration layers
// such as internal/device accept "anything that erasure-codes" instead of
// this package's concrete type.
type Codec interface {
	// K returns the number of data units per stripe.
	K() int
	// R returns the number of parity units per stripe.
	R() int
	// UnitSize returns the unit size in bytes.
	UnitSize() int
	// DataSize returns the contiguous data stripe size, K()*UnitSize().
	DataSize() int
	// ParitySize returns the contiguous parity stripe size, R()*UnitSize().
	ParitySize() int
	// Encode computes the parity stripe from a contiguous data stripe.
	Encode(data, parity []byte) error
	// Reconstruct rebuilds every nil shard in place; shards holds the k
	// data units followed by the r parity units, at least k non-nil.
	Reconstruct(shards [][]byte) error
	// ReconstructData rebuilds only the nil data shards, leaving lost
	// parity shards nil.
	ReconstructData(shards [][]byte) error
}

var _ Codec = (*Code)(nil)
