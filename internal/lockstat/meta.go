package lockstat

import (
	"sync"

	"shfllock/internal/shuffle"
)

// MetaSource feeds a Site's own lockstat back to its meta-policy. shuffle.Meta
// steers on interval activity, not lifetime totals, so the returned source
// owns the previous-snapshot state: each call diffs the site's report
// against the last one and maps the interval onto the meta-policy's
// observation schema. That closes the lockstat loop — the same Diff the
// kvserver controller and the /debug/lockstat endpoint consume becomes the
// self-tuning signal of the lock underneath them. Ops counts attempts
// (acquires + aborts) so an abort storm with few completions still clears
// the min-ops floor. The source is safe for concurrent callers, though Meta
// serializes evaluations itself.
func MetaSource(site *Site) shuffle.MetaSource {
	var mu sync.Mutex
	var prev Report
	return func() shuffle.Obs {
		mu.Lock()
		defer mu.Unlock()
		cur := site.Report()
		d := Diff(prev, cur)
		prev = cur
		o := shuffle.Obs{
			Ops:        d.Acquires + d.Aborts,
			Aborts:     d.Aborts,
			Shuffles:   d.Shuffles,
			ShuffleEff: d.ShuffleEff,
		}
		if o.Ops > 0 {
			o.AbortFrac = float64(d.Aborts) / float64(o.Ops)
			o.ParkRate = float64(d.Parks) / float64(o.Ops)
		}
		return o
	}
}
