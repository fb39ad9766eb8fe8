package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

var t0 = time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC)

func mkTrip(id int64, coords ...float64) *Trip {
	t := &Trip{ID: id, CarID: 1}
	for i := 0; i+1 < len(coords); i += 2 {
		n := len(t.Points)
		t.Points = append(t.Points, RoutePoint{
			PointID:  n + 1,
			TripID:   id,
			Pos:      geo.V(coords[i], coords[i+1]),
			Time:     t0.Add(time.Duration(n) * 30 * time.Second),
			SpeedKmh: 30,
			FuelMl:   float64(n) * 10,
			DistM:    float64(n) * 100,
		})
	}
	return t
}

func TestValidate(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trip rejected: %v", err)
	}
	if err := (&Trip{ID: 2}).Validate(); err == nil {
		t.Fatal("empty trip accepted")
	}
	tr.Points[1].TripID = 99
	if err := tr.Validate(); err == nil {
		t.Fatal("foreign point accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0)
	cl := tr.Clone()
	cl.Points[0].Pos = geo.V(999, 999)
	if tr.Points[0].Pos == cl.Points[0].Pos {
		t.Fatal("Clone shares point storage")
	}
}

func TestGeometryAndPathLength(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0, 100, 50)
	g := tr.Geometry()
	if len(g) != 3 || g.Length() != 150 {
		t.Fatalf("geometry = %v (len %f)", g, g.Length())
	}
	if got := PathLength(tr.Points); got != 150 {
		t.Fatalf("PathLength = %f", got)
	}
	if got := PathLength(nil); got != 0 {
		t.Fatalf("PathLength(nil) = %f", got)
	}
}

func TestTimesAndDuration(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0, 200, 0)
	if tr.StartTime() != t0 {
		t.Fatalf("StartTime = %v", tr.StartTime())
	}
	if want := t0.Add(time.Minute); tr.EndTime() != want {
		t.Fatalf("EndTime = %v, want %v", tr.EndTime(), want)
	}
	if tr.Duration() != time.Minute {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	// Start/End scan all points even when out of order.
	tr.Points[0], tr.Points[2] = tr.Points[2], tr.Points[0]
	if tr.StartTime() != t0 || tr.EndTime() != t0.Add(time.Minute) {
		t.Fatal("StartTime/EndTime must be order-independent")
	}
	empty := &Trip{}
	if !empty.StartTime().IsZero() || !empty.EndTime().IsZero() || empty.Duration() != 0 {
		t.Fatal("empty trip times must be zero")
	}
}

func TestKey(t *testing.T) {
	tr := mkTrip(42, 0, 0, 1, 1)
	k := tr.Key()
	if k.TripID != 42 || !k.Start.Equal(t0) {
		t.Fatalf("Key = %+v", k)
	}
	if !strings.Contains(k.String(), "42") {
		t.Fatalf("Key.String = %q", k.String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	trips := []*Trip{
		mkTrip(1, 0, 0, 100, 0, 100, 100),
		mkTrip(2, 50, 50, 60, 60),
	}
	trips[1].CarID = 3
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trips, proj); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), proj)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d trips", len(back))
	}
	for i, tr := range back {
		orig := trips[i]
		if tr.ID != orig.ID || tr.CarID != orig.CarID || len(tr.Points) != len(orig.Points) {
			t.Fatalf("trip %d header mismatch", i)
		}
		for k := range tr.Points {
			if tr.Points[k].Pos.Dist(orig.Points[k].Pos) > 0.02 {
				t.Fatalf("trip %d point %d moved", i, k)
			}
			if !tr.Points[k].Time.Equal(orig.Points[k].Time) {
				t.Fatalf("trip %d point %d time mismatch", i, k)
			}
			if tr.Points[k].SpeedKmh != orig.Points[k].SpeedKmh {
				t.Fatalf("trip %d point %d speed mismatch", i, k)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	cases := []string{
		"",                             // no header
		"bogus,header,x,x,x,x,x,x,x\n", // wrong header
		"car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\nx,1,1,0,25,65,0,0,0\n",  // bad car
		"car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n1,1,1,0,bad,65,0,0,0\n", // bad lon
		"car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n1,1,1\n",                // short row
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), proj); err == nil {
			t.Errorf("case %d accepted malformed input", i)
		}
	}
}

// TestReadCSVRejectsOutOfRange: rows whose point id overflows int32 or
// whose time lies past ±MaxEventTimeMs are parse errors naming their
// line, like the binary readers' refusals; the limits themselves pass.
func TestReadCSVRejectsOutOfRange(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	const head = "car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n"
	const good = "1,1,1,0,25.47,65.01,0,0,0\n"
	row := func(id, ms string) string { return "1,1," + id + "," + ms + ",25.47,65.01,0,0,0\n" }
	past := strconv.FormatInt(MaxEventTimeMs+1, 10)
	for name, bad := range map[string]string{
		"point id 2^31":      row("2147483648", "1000"),
		"time past limit":    row("2", past),
		"time before -limit": row("2", "-"+past),
	} {
		_, err := ReadCSV(strings.NewReader(head+good+bad), proj)
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: err = %v, want a line 3 parse error", name, err)
		}
	}
	edge := head + row("2147483647", strconv.FormatInt(MaxEventTimeMs, 10)) +
		row("-2147483648", strconv.FormatInt(-MaxEventTimeMs, 10))
	trips, err := ReadCSV(strings.NewReader(edge), proj)
	if err != nil || len(trips) != 1 || len(trips[0].Points) != 2 {
		t.Fatalf("rows at the limits: trips=%v err=%v", trips, err)
	}
	a := NewArena(0)
	if _, err := a.AppendTrip(trips[0]); err != nil {
		t.Fatalf("a CSV trip at the limits does not fit the column store: %v", err)
	}
}

// TestReadCSVRejectsOutOfRangeCarID: a car id outside int32 — the
// range TAXITRCB and TAXIPNTB carry — is a parse error naming its line;
// both int32 limits pass.
func TestReadCSVRejectsOutOfRangeCarID(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	const head = "car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n"
	row := func(car, trip string) string { return car + "," + trip + ",1,0,25.47,65.01,0,0,0\n" }
	for _, car := range []string{"2147483648", "-2147483649", "-9223372036854775808"} {
		_, err := ReadCSV(strings.NewReader(head+row("1", "1")+row(car, "2")), proj)
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("car id %s: err = %v, want a line 3 parse error", car, err)
		}
	}
	trips, err := ReadCSV(strings.NewReader(head+row("2147483647", "1")+row("-2147483648", "2")), proj)
	if err != nil || len(trips) != 2 {
		t.Fatalf("car ids at the int32 limits: trips=%v err=%v", trips, err)
	}
	if trips[0].CarID != math.MinInt32 || trips[1].CarID != math.MaxInt32 {
		t.Fatalf("car ids = %d, %d", trips[0].CarID, trips[1].CarID)
	}
}

func TestWriteGeoJSON(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	trips := []*Trip{mkTrip(7, 0, 0, 100, 0, 100, 100)}
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, trips, proj); err != nil {
		t.Fatalf("WriteGeoJSON: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	features := parsed["features"].([]any)
	if len(features) != 1 {
		t.Fatalf("features = %d", len(features))
	}
	f := features[0].(map[string]any)
	props := f["properties"].(map[string]any)
	if props["trip_id"].(float64) != 7 || props["points"].(float64) != 3 {
		t.Fatalf("props = %v", props)
	}
	coords := f["geometry"].(map[string]any)["coordinates"].([]any)
	if len(coords) != 3 {
		t.Fatalf("coordinates = %d", len(coords))
	}
}
