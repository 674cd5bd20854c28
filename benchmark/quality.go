package main

// qualityAcc accumulates, from valid /v1/place answers, what a caller can
// see of decision quality: for best-effort answers that carry both
// predictions, the predicted time on the tier chosen over the predicted
// local time.
type qualityAcc struct {
	beN     int
	beRatio float64
}

func (q *qualityAcc) add(b *placeBody) {
	if b.Class != "BE" || b.PredLocalS <= 0 || b.PredRemoteS <= 0 {
		return
	}
	q.beN++
	if b.Tier == "remote" {
		q.beRatio += b.PredRemoteS / b.PredLocalS
	} else {
		q.beRatio++
	}
}

func (q *qualityAcc) merge(o qualityAcc) {
	q.beN += o.beN
	q.beRatio += o.beRatio
}
