package core

import "testing"

// TestAdmitStateAdmits pins the one ingress predicate both data planes
// share: admit takes every frame, degrade one in DegradeStride by frame
// number, reject none.
func TestAdmitStateAdmits(t *testing.T) {
	cases := []struct {
		st      AdmitState
		frameNo uint64
		want    bool
	}{
		{AdmitOK, 0, true},
		{AdmitOK, 1, true},
		{AdmitDegrade, 0, true},
		{AdmitDegrade, 1, false},
		{AdmitDegrade, DegradeStride, true},
		{AdmitDegrade, DegradeStride + 1, false},
		{AdmitReject, 0, false},
		{AdmitReject, 1, false},
	}
	for _, c := range cases {
		if got := c.st.Admits(c.frameNo); got != c.want {
			t.Errorf("%v.Admits(%d) = %v, want %v", c.st, c.frameNo, got, c.want)
		}
	}
}
