package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"streach"
	"streach/internal/serve"
)

// hotPerSecond bounds how many requests are generated per second of
// timed phase; the closed loop (5 700 requests/s on the reference box)
// uses as many as it gets to.
const hotPerSecond = 20000

// httpRequest renders q as the request a client of /v1/reach would send:
// GET with URL parameters, or POST with a JSON body for several
// locations. Floats are written in their shortest exact form, so the
// server parses back the very coordinates the plan cache was keyed on.
func httpRequest(base string, q query) (*http.Request, error) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	params := url.Values{}
	if q.GeoJSON {
		params.Set("format", "geojson")
	}
	if q.Post {
		body, err := json.Marshal(map[string]any{
			"locations": q.Req.Locations,
			"start":     q.Req.Start.String(),
			"dur":       q.Req.Duration.String(),
			"prob":      q.Req.Prob,
		})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/reach?"+params.Encode(), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}
	params.Set("lat", f(q.Req.Locations[0].Lat))
	params.Set("lng", f(q.Req.Locations[0].Lng))
	params.Set("start", q.Req.Start.String())
	params.Set("dur", q.Req.Duration.String())
	params.Set("prob", f(q.Req.Prob))
	return http.NewRequest(http.MethodGet, base+"/v1/reach?"+params.Encode(), nil)
}

// hotServer is the system under test of http-hot: the serving layer over
// sys behind a loopback listener, in this process.
type hotServer struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startHotServer(sys *streach.System) (*hotServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hotServer{srv: serve.New(sys, serve.Config{}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h.http = &http.Server{Handler: h.srv.Handler()}
	go func() { h.done <- h.http.Serve(ln) }()
	return h, nil
}

// stop shuts the listener down and waits for the serve loop and the
// server's background warms to end.
func (h *hotServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if serr := <-h.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	h.srv.Close()
	return err
}

// hotClient sends requests over at most conns keep-alive connections.
func hotClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// fetch sends q and returns the reply body; any status but 200 is an
// error (a 429 is a refusal, and counts against error_share).
func fetch(c *http.Client, base string, q query) ([]byte, error) {
	req, err := httpRequest(base, q)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	return body, nil
}

// replyDiffers decodes the reply body to q and describes how it differs
// from the direct answer r ("" when it does not). A GeoJSON reply carries
// no probabilities and is compared on segments alone.
func replyDiffers(body []byte, q query, r *streach.Region) (string, error) {
	got, err := decodeBody(body, q.GeoJSON)
	if err != nil {
		return "", err
	}
	want := answerOf(r)
	if q.GeoJSON {
		want.Probs = nil
	}
	return got.differs(want), nil
}

// checkBodies compares every kept reply body with a direct System.Do of
// the same request.
func checkBodies(sys *streach.System, qs []query, bodies [][]byte, logf func(string, ...any)) (wrong int, err error) {
	for i, body := range bodies {
		if body == nil {
			continue
		}
		r, err := sys.Do(context.Background(), qs[i].Req)
		if err != nil {
			return wrong, fmt.Errorf("direct answer %d: %w", i, err)
		}
		d, err := replyDiffers(body, qs[i], r)
		if err != nil {
			return wrong, fmt.Errorf("reply %d: %w", i, err)
		}
		if d != "" {
			if wrong < 5 {
				logf("WRONG reply %d: %s", i, d)
			}
			wrong++
		}
	}
	return wrong, nil
}

// serveVars reads the serving layer's own counters from /metrics.
func serveVars(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vars := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return vars, nil
}

// hotInputs draws http-hot's request stream and the popular shapes to
// ask once before timing.
func hotInputs(smp *sampler, seconds time.Duration) (qs, shapes []query) {
	return smp.hotStream(hotPerSecond * int(seconds.Seconds()))
}

func runHot(e *env, w *workload) (*result, error) {
	o, err := e.open(w, e.dir)
	if err != nil {
		return nil, err
	}
	defer o.sys.Close()
	qs, shapes := hotInputs(o.smp, e.seconds)
	h, err := startHotServer(o.sys)
	if err != nil {
		return nil, err
	}
	client := hotClient(e.procs)
	// Let the plan cache fill before timing: users of a long-running
	// server do not pay each popular shape's first miss.
	for _, q := range shapes {
		if _, err := fetch(client, h.base, q); err != nil {
			h.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	bodies := make([][]byte, len(qs))
	sizes := make([]float64, len(qs))
	l := timePhase(o.sys, func() load {
		return runClosed(e.procs, e.seconds, len(qs), func(i int) error {
			body, err := fetch(client, h.base, qs[i])
			sizes[i] = float64(len(body))
			if err == nil && i%checkEvery == 0 {
				bodies[i] = body
			}
			return err
		})
	})
	vars, err := serveVars(client, h.base)
	client.CloseIdleConnections()
	if serr := h.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	wrong, err := checkBodies(o.sys, qs, bodies, e.logf)
	if err != nil {
		return nil, err
	}
	res, err := e.summarise(o, l, wrong, e.dir, int64(e.shared.Visits))
	if err != nil {
		return nil, err
	}
	res.Layers["serve.coalesced_share"] = ratio(vars["coalesced_total"], vars["requests_total"])
	res.Layers["serve.rejected_share"] = ratio(vars["admission_rejected_total"], float64(len(l.Ops)))
	var sent []float64
	for _, o := range l.Ops {
		if o.Err == nil {
			sent = append(sent, sizes[o.Index])
		}
	}
	res.Layers["serve.response_bytes_p50"] = median(sent)
	return res, nil
}
