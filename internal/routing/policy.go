// Package routing implements Swing's distributed resource-management
// algorithms (paper §V): per-upstream latency estimation from timestamped
// ACKs, Worker Selection, and probabilistic data routing. It provides the
// paper's LRS algorithm (Latency-based Routing with worker Selection) and
// the four comparison policies of §VI-B:
//
//	RR  — round-robin over all downstreams (the data-center default)
//	PR  — processing-delay-based probabilistic routing, no selection
//	LR  — latency-based probabilistic routing, no selection
//	PRS — processing-delay-based routing with Worker Selection
//	LRS — latency-based routing with Worker Selection (Swing's policy)
//
// The package is pure control logic with no goroutines or I/O: both the
// discrete-event swarm simulator (internal/core) and the live runtime
// (internal/runtime) drive the same Router and pick from the same Table —
// the router's current routing table — so the algorithm evaluated in
// simulation is exactly the code deployed on devices.
package routing

import (
	"errors"
	"fmt"
	"strings"
)

// PolicyKind selects a resource-management policy.
type PolicyKind uint8

// The five policies compared in the paper's evaluation.
const (
	RR PolicyKind = iota + 1
	PR
	LR
	PRS
	LRS
)

// Policies lists all policy kinds in the paper's presentation order.
func Policies() []PolicyKind { return []PolicyKind{RR, PR, LR, PRS, LRS} }

// String names the policy as the paper does.
func (p PolicyKind) String() string {
	switch p {
	case RR:
		return "RR"
	case PR:
		return "PR"
	case LR:
		return "LR"
	case PRS:
		return "PRS"
	case LRS:
		return "LRS"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// UsesLatency reports whether routing weights derive from end-to-end
// latency (L*) rather than processing delay only (P*).
func (p PolicyKind) UsesLatency() bool { return p == LR || p == LRS }

// UsesSelection reports whether the policy applies Worker Selection (*S).
func (p PolicyKind) UsesSelection() bool { return p == PRS || p == LRS }

// Valid reports whether p is a known policy.
func (p PolicyKind) Valid() bool { return p >= RR && p <= LRS }

// ErrUnknownPolicy is returned by ParsePolicy for unrecognized names.
var ErrUnknownPolicy = errors.New("routing: unknown policy")

// ParsePolicy resolves a policy name (case-insensitive).
func ParsePolicy(s string) (PolicyKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "RR":
		return RR, nil
	case "PR":
		return PR, nil
	case "LR":
		return LR, nil
	case "PRS":
		return PRS, nil
	case "LRS":
		return LRS, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownPolicy, s)
	}
}
