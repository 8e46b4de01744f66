package core

import "fmt"

// AdmitState is the per-service admission verdict an application-aware
// control plane pushes back to the data plane when scale-out alone
// cannot relieve distress (replica cap reached or placement
// unschedulable). It is enforced at the sidecar ingress — before the
// queue — so admission pressure never turns into queue saturation:
//
//   - AdmitOK: every frame is admitted (the default).
//   - AdmitDegrade: ingress is decimated to a lower frame rate
//     (deterministically by frame number, so each client keeps a steady
//     reduced cadence) while the service works off its backlog.
//   - AdmitReject: all ingress frames are turned away at the door. The
//     drop is accounted separately from queue/busy drops
//     (DroppedAdmission / scatter_admission_*), both because it is a
//     deliberate control action rather than distress, and so the
//     controller's recovery signal — the distress drop ratio — goes to
//     zero while rejection holds, which is what lets hysteresis step
//     back down to degrade and admit.
//
// Frames refused by admission are never acked, so upstream route
// windows book them as losses — the same backpressure signal as a
// saturated replica, which keeps stats-driven routing away from
// services under admission control.
type AdmitState uint8

// Admission verdicts, ordered by increasing severity.
const (
	AdmitOK AdmitState = iota
	AdmitDegrade
	AdmitReject
)

// String returns the wire form carried on heartbeat responses.
func (s AdmitState) String() string {
	switch s {
	case AdmitOK:
		return "admit"
	case AdmitDegrade:
		return "degrade"
	case AdmitReject:
		return "reject"
	default:
		return fmt.Sprintf("admit-state-%d", uint8(s))
	}
}

// ParseAdmitState decodes the wire form. Unknown strings map to AdmitOK
// — an old or confused controller must never wedge a service shut.
func ParseAdmitState(s string) AdmitState {
	switch s {
	case "degrade":
		return AdmitDegrade
	case "reject":
		return AdmitReject
	default:
		return AdmitOK
	}
}

// DegradeStride is the ingress decimation factor under AdmitDegrade:
// one frame in DegradeStride is admitted (by frame number, so the kept
// subsequence is deterministic per client).
const DegradeStride = 2

// Admits reports whether the verdict lets a frame through the ingress:
// admit takes every frame, degrade one in DegradeStride by frame number,
// reject none. Both data planes test st != AdmitOK before calling it, so
// an admitted frame pays one comparison.
func (s AdmitState) Admits(frameNo uint64) bool {
	return s == AdmitOK || s != AdmitReject && frameNo%DegradeStride == 0
}
