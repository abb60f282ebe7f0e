// Batch payload codec: the versioned multi-transaction envelope that
// lets one protocol round carry many transactions' bodies. A cluster
// groups admitted transactions that share a participant roster, master,
// and admission epoch into a single carrier transaction whose MsgXact
// payload is an encoded BatchPayload; every participant executes the
// member bodies as one atomic unit, one shared vote round, one shared
// decision — N transactions for the message cost (and, with WAL group
// commit, the fsync cost) of one.
//
// The envelope is transport-agnostic: payloads are opaque to the sim and
// net backends alike, so the same bytes ride a simulator event
// or a TCP frame (where EncodeXact wraps them like any other MsgXact
// body). A magic prefix keeps batch payloads unmistakable for plain
// engine op bodies: engine.DecodeOps reads the first four bytes as an op
// count, and "TPB\x01" decodes to a count (0x54504201) whose minimum
// encoded size exceeds any real payload, so it fails validation instead
// of mis-parsing.
package proto

import (
	"encoding/binary"
	"errors"
)

// batchMagic prefixes every encoded BatchPayload. The final byte is the
// envelope version; bump it for incompatible layout changes.
const batchMagic = "TPB\x01"

// BatchVersion is the current multi-transaction envelope version.
const BatchVersion = 1

// maxBatchMembers bounds a decoded batch (hostile-input hardening; real
// batches are far smaller).
const maxBatchMembers = 1 << 16

// BatchMember is one member transaction folded into a carrier.
type BatchMember struct {
	// TID is the member's own transaction identifier, preserved so
	// outcomes can be fanned back to the member results after the carrier
	// decides.
	TID TxnID
	// Payload is the member's original transaction body.
	Payload []byte
}

// BatchPayload is the decoded multi-transaction envelope.
type BatchPayload struct {
	Members []BatchMember
}

// ErrBadBatch reports an undecodable batch envelope.
var ErrBadBatch = errors.New("proto: bad batch payload")

// IsBatchPayload reports whether a transaction body is a batch envelope.
func IsBatchPayload(payload []byte) bool {
	return len(payload) >= len(batchMagic) && string(payload[:len(batchMagic)]) == batchMagic
}

// EncodeBatch serializes members into a carrier transaction body:
// magic+version, u32 member count, then per member u64 tid, u32 payload
// length, payload.
func EncodeBatch(members []BatchMember) []byte {
	size := len(batchMagic) + 4
	for _, m := range members {
		size += 8 + 4 + len(m.Payload)
	}
	out := make([]byte, 0, size)
	out = append(out, batchMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(members)))
	for _, m := range members {
		out = binary.BigEndian.AppendUint64(out, uint64(m.TID))
		out = binary.BigEndian.AppendUint32(out, uint32(len(m.Payload)))
		out = append(out, m.Payload...)
	}
	return out
}

// DecodeBatch parses a carrier body. Counts and lengths are validated in
// 64-bit arithmetic before any allocation, so hostile payloads return
// ErrBadBatch instead of over-allocating.
func DecodeBatch(payload []byte) (BatchPayload, error) {
	if !IsBatchPayload(payload) {
		return BatchPayload{}, ErrBadBatch
	}
	rest := payload[len(batchMagic):]
	if len(rest) < 4 {
		return BatchPayload{}, ErrBadBatch
	}
	n := binary.BigEndian.Uint32(rest[0:4])
	rest = rest[4:]
	if n == 0 || n > maxBatchMembers || uint64(n)*12 > uint64(len(rest)) {
		return BatchPayload{}, ErrBadBatch
	}
	members := make([]BatchMember, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 12 {
			return BatchPayload{}, ErrBadBatch
		}
		tid := binary.BigEndian.Uint64(rest[0:8])
		pl := binary.BigEndian.Uint32(rest[8:12])
		rest = rest[12:]
		if uint64(len(rest)) < uint64(pl) {
			return BatchPayload{}, ErrBadBatch
		}
		var body []byte
		if pl > 0 {
			body = append([]byte(nil), rest[:pl]...)
		}
		members = append(members, BatchMember{TID: TxnID(tid), Payload: body})
		rest = rest[pl:]
	}
	if len(rest) != 0 {
		return BatchPayload{}, ErrBadBatch
	}
	return BatchPayload{Members: members}, nil
}
