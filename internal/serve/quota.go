package serve

import (
	"container/list"
	"net"
	"net/http"
	"sync"
	"time"
)

// Per-client token-bucket quotas, the fairness layer in front of global
// admission: one overeager client exhausts its own bucket and gets 429s
// while everyone else's traffic still fits under the concurrency limit.
// Clients are keyed by X-API-Key when present, else by peer host. The
// table is LRU-bounded so an address-spraying client cannot grow it
// without limit; evicting an idle client merely refills its bucket on
// return, which errs in the client's favour.

const quotaTableCap = 4096

type quotas struct {
	mu    sync.Mutex
	rate  float64 // tokens per second
	burst float64
	table map[string]*quotaBucket
	order *list.List // front = most recently used
}

type quotaBucket struct {
	key    string
	tokens float64
	last   time.Time
	elem   *list.Element
}

// newQuotas returns buckets refilling at rate tokens per second, each
// holding up to two seconds' worth (at least one token).
func newQuotas(rate float64) *quotas {
	burst := 2 * rate
	if burst < 1 {
		burst = 1
	}
	return &quotas{rate: rate, burst: burst, table: map[string]*quotaBucket{}, order: list.New()}
}

// allow spends one token from the client's bucket. When the bucket is
// dry, retry reports how long until the next token accrues.
func (q *quotas) allow(key string, now time.Time) (ok bool, retry time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.table[key]
	if b == nil {
		b = &quotaBucket{key: key, tokens: q.burst, last: now}
		b.elem = q.order.PushFront(b)
		q.table[key] = b
		if q.order.Len() > quotaTableCap {
			oldest := q.order.Back()
			q.order.Remove(oldest)
			delete(q.table, oldest.Value.(*quotaBucket).key)
		}
	} else {
		q.order.MoveToFront(b.elem)
		b.tokens += now.Sub(b.last).Seconds() * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / q.rate
	return false, time.Duration(need * float64(time.Second))
}

// clientKey identifies the requesting client: the API key when sent,
// else the peer host (sanitized like request IDs, so hostile header
// values can't pollute logs or metrics).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		if safe := sanitizeRequestID(k); safe != "" {
			return "key:" + safe
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "peer:" + host
}
