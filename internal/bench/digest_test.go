package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// lossyIndex wraps the oracle but drops every 100th result — the kind of
// subtle bug the harness's digest cross-check exists to catch.
type lossyIndex struct {
	inner core.Index
	n     int
}

func (l *lossyIndex) Name() string                      { return "lossy" }
func (l *lossyIndex) Build(pts []geom.Point)            { l.inner.Build(pts) }
func (l *lossyIndex) Update(id uint32, o, n geom.Point) {}
func (l *lossyIndex) Query(r geom.Rect, emit func(id uint32)) {
	l.inner.Query(r, func(id uint32) {
		l.n++
		if l.n%100 == 0 {
			return
		}
		emit(id)
	})
}

func TestRunAvgTickCatchesWrongResults(t *testing.T) {
	wcfg := workload.DefaultUniform()
	wcfg.NumPoints = 2000
	wcfg.SpaceSize = 4000
	wcfg.Ticks = 2
	lineup := []technique{
		{"oracle", func(p core.Params) core.Index { return core.NewBruteForce() }},
		{"lossy", func(p core.Params) core.Index { return &lossyIndex{inner: core.NewBruteForce()} }},
	}
	_, err := runAvgTick(wcfg, lineup)
	if err == nil {
		t.Fatal("lossy technique slipped past the digest check")
	}
	if !strings.Contains(err.Error(), "lossy") {
		t.Fatalf("error does not name the culprit: %v", err)
	}
}

func TestDigestErrorMessage(t *testing.T) {
	err := errDigest("A", "B")
	if !strings.Contains(err.Error(), "A") || !strings.Contains(err.Error(), "B") {
		t.Fatalf("digest error unhelpful: %v", err)
	}
}
