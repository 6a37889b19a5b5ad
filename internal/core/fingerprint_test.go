package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"yukta/internal/mat"
	"yukta/internal/robust"
)

// Fingerprints of the two validated default controllers. A μ-analysis change
// that is meant to leave every bit unchanged (scratch buffers, a parallel
// frequency grid, moving the lower-bound sweep) must keep them; an
// algorithmic change re-records them and says why.
const (
	hwDesignFingerprint = "fae0cf2942ff3a7669958b8fa41a70766a3f96f682fd20b24d499f829f27dc68"
	osDesignFingerprint = "9c7c3a991a6bc76fc93fa2b38813346ac4ffad4a183ec0aa29dcc121c2f4956c"
)

// designFingerprint hashes the float64 bits of the controller realization
// (K.A, K.B, K.C, K.D with their shapes) and of every numeric field of its
// design report.
func designFingerprint(c *robust.Controller) string {
	h := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { putU(math.Float64bits(f)) }
	for _, m := range []*mat.Matrix{c.K.A, c.K.B, c.K.C, c.K.D} {
		putU(uint64(m.Rows()))
		putU(uint64(m.Cols()))
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				putF(m.At(i, j))
			}
		}
	}
	r := c.Report
	putF(r.SSV)
	putF(r.SSVLower)
	putF(r.MinS)
	putU(uint64(len(r.GuaranteedBounds)))
	for _, b := range r.GuaranteedBounds {
		putF(b)
	}
	putF(r.ControlPenalty)
	putU(uint64(r.Iterations))
	putU(uint64(r.StateDim))
	return hex.EncodeToString(h.Sum(nil))
}

// TestValidatedDesignFingerprint pins the validated default HW and OS
// controllers bit for bit, with the μ bracket their reports carried before
// it moved off the design path (HWControllerBracket, OSControllerBracket).
func TestValidatedDesignFingerprint(t *testing.T) {
	p := testPlatform(t)
	hw, err := p.HWControllerBracket(DefaultHWParams())
	if err != nil {
		t.Fatal(err)
	}
	os, err := p.OSControllerBracket(DefaultOSParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ctl  *robust.Controller
		want string
	}{
		{"HW", hw, hwDesignFingerprint},
		{"OS", os, osDesignFingerprint},
	} {
		r := c.ctl.Report
		t.Logf("%s: SSV %v SSVLower %v rho %v", c.name, r.SSV, r.SSVLower, r.ControlPenalty)
		if got := designFingerprint(c.ctl); got != c.want {
			t.Errorf("%s design fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
