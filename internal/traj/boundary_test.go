package traj_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

// boundarySlot is the slot width of FuzzReadDatasetBuilds' indexes: four
// slots a day keep each build cheap enough to run thousands a second.
const boundarySlot = 21600

// firstBadTrajectory names the first trajectory the builders must refuse,
// as their errors do ("trajectory 3: " or "trajectory 3 visit 7: "), or
// returns "" when every trajectory may be indexed on numSegments
// segments. It restates the rule independently of traj.CheckTrajectory.
func firstBadTrajectory(ds *traj.Dataset, numSegments int) string {
	for i, mt := range ds.Matched {
		if mt.Taxi < 0 || mt.Taxi >= traj.MaxTaxis || mt.Day < 0 || int(mt.Day) >= ds.Days {
			return fmt.Sprintf("trajectory %d: ", i)
		}
		for j, v := range mt.Visits {
			speed := float64(v.Speed)
			if v.Segment < 0 || int(v.Segment) >= numSegments || v.ExitMs < v.EnterMs ||
				math.IsNaN(speed) || math.IsInf(speed, 0) || speed < 0 {
				return fmt.Sprintf("trajectory %d visit %d: ", i, j)
			}
		}
	}
	return ""
}

// FuzzReadDatasetBuilds feeds every dataset traj.ReadDataset accepts
// through both index builders on one small network. Each builder either
// refuses the first bad trajectory with an error naming it (and the
// visit, when a visit is at fault), or builds; a built Con-Index holds a
// finite number in every speed cell. The ST-Index may also refuse a
// dataset whose day count it cannot index, naming no trajectory.
func FuzzReadDatasetBuilds(f *testing.F) {
	net, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin: geo.Point{Lat: 22.5, Lng: 114}, Rows: 2, Cols: 3, SpacingMeters: 800, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	n := net.NumSegments()
	encode := func(ds *traj.Dataset) []byte {
		var buf bytes.Buffer
		if err := traj.WriteDataset(&buf, ds); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := &traj.Dataset{BaseDate: time.Unix(1_400_000_000, 0).UTC(), Days: 2, Matched: []traj.MatchedTrajectory{
		{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 0, EnterMs: 36e6, ExitMs: 36e6 + 9000, Speed: 8}, {Segment: 1, EnterMs: 36e6 + 9000, ExitMs: 36e6 + 20000, Speed: 11}}},
		{Taxi: 2, Day: 1, Visits: []traj.Visit{{Segment: roadnet.SegmentID(n - 1), EnterMs: 0, ExitMs: 86_399_000, Speed: 0.2}}},
	}}
	f.Add(encode(good))
	for _, bad := range []func(ds *traj.Dataset){
		func(ds *traj.Dataset) { ds.Matched[0].Visits[1].Segment = roadnet.SegmentID(n) },
		func(ds *traj.Dataset) { ds.Matched[1].Visits[0].ExitMs = -1 },
		func(ds *traj.Dataset) { ds.Matched[0].Visits[0].Speed = float32(math.Inf(1)) },
		func(ds *traj.Dataset) { ds.Matched[1].Day = 2 },
		func(ds *traj.Dataset) { ds.Matched[0].Taxi = traj.MaxTaxis },
		// Finite but enormous speeds in one cell: their sum must not
		// overflow the mean-speed accumulator.
		func(ds *traj.Dataset) {
			ds.Matched[0].Visits[0].Speed = math.MaxFloat32
			ds.Matched[0].Visits[1] = ds.Matched[0].Visits[0]
		},
	} {
		ds := *good
		ds.Matched = []traj.MatchedTrajectory{good.Matched[0], good.Matched[1]}
		for i := range ds.Matched {
			ds.Matched[i].Visits = append([]traj.Visit(nil), ds.Matched[i].Visits...)
		}
		bad(&ds)
		f.Add(encode(&ds))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := traj.ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := firstBadTrajectory(ds, n)

		st, err := stindex.Build(net, ds, stindex.Config{SlotSeconds: boundarySlot})
		switch {
		case err == nil:
			st.Close()
			if want != "" {
				t.Fatalf("the ST-Index built over a dataset whose %sis bad", want)
			}
		case want != "" && strings.HasPrefix(err.Error(), "stindex: "+want):
		case (ds.Days <= 0 || ds.Days >= 512) && !strings.Contains(err.Error(), "trajectory"):
			// A day count the ST-Index cannot index (its limit is 511).
		default:
			t.Fatalf("ST-Index build: %v, want an error naming %q", err, want)
		}

		con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: boundarySlot})
		if want != "" {
			if err == nil || !strings.HasPrefix(err.Error(), "conindex: "+want) {
				t.Fatalf("Con-Index build: %v, want an error naming %q", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("Con-Index build refused a good dataset: %v", err)
		}
		for slot := range con.NumSlots() {
			for seg := range n {
				id := roadnet.SegmentID(seg)
				for name, v := range map[string]float64{
					"min": con.MinSpeed(id, slot), "max": con.MaxSpeed(id, slot), "mean": con.MeanSpeed(id, slot),
				} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("segment %d slot %d: %s speed %v", seg, slot, name, v)
					}
				}
			}
		}
	})
}
