package exp

import (
	"fmt"
	"strings"

	"yukta/internal/core"
)

// Ablation quantifies the contribution of the two design choices DESIGN.md
// calls out, by removing each from the full Yukta stack and re-measuring
// E×D (averaged over the given applications, normalized to the intact
// stack):
//
//   - external signals (the coordination channel of §III-B) — without them
//     the two SSV controllers are the "decoupled" organization the paper
//     argues against;
//   - self-conditioning (feeding the applied actuator state back to the
//     controller's estimator) — without it, saturation, quantization and
//     firmware overrides can wind the controllers up.
type Ablation struct {
	// Values are average E×D normalized to the intact Yukta full stack
	// (> 1 means the removal hurt).
	NoExternals     float64
	NoConditioning  float64
	IntactExDperApp map[string]float64
}

// AblationReport runs the ablations over the given apps (nil = a
// representative subset).
func (c *Context) AblationReport(apps []string) (*Ablation, error) {
	if apps == nil {
		apps = []string{"gamess", "mcf", "blackscholes", "streamcluster"}
	}
	variants := []core.Scheme{
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()),
		c.P.YuktaFullAblated("no external signals", true, false),
		c.P.YuktaFullAblated("no self-conditioning", false, true),
	}
	res, err := c.runGrid(variants, apps, appLoader, c.scalarOpts(), nil)
	if err != nil {
		return nil, err
	}
	// Sum in the sequential nesting order so the float totals (and therefore
	// the reported ratios) do not depend on worker scheduling.
	totals := make([]float64, len(variants))
	out := &Ablation{IntactExDperApp: map[string]float64{}}
	for vi := range variants {
		for ai, app := range apps {
			exd := res[vi*len(apps)+ai].ExD
			totals[vi] += exd
			if vi == 0 {
				out.IntactExDperApp[app] = exd
			}
		}
	}
	out.NoExternals = totals[1] / totals[0]
	out.NoConditioning = totals[2] / totals[0]
	return out, nil
}

// RenderAblation renders the ablation summary.
func RenderAblation(a *Ablation) string {
	var sb strings.Builder
	sb.WriteString("Ablations of the full Yukta stack (E×D relative to intact = 1.00)\n")
	fmt.Fprintf(&sb, "  without external signals (decoupled SSV): %.2f\n", a.NoExternals)
	fmt.Fprintf(&sb, "  without self-conditioning (naive runtime): %.2f\n", a.NoConditioning)
	return sb.String()
}
