package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestTableJSONRoundTrip(t *testing.T) {
	orig := &Table{
		ID:     "E5",
		Title:  "path balancing",
		Header: []string{"circuit", "glitch%"},
		Rows:   [][]string{{"mult6", "31.2%"}, {"cla8", "12.0%"}},
		Notes:  []string{"unit-delay model"},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, &back) {
		t.Errorf("round trip mismatch:\norig %+v\nback %+v", orig, &back)
	}
	// The wire form uses lowercase keys — the documented report schema.
	var raw map[string]interface{}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "title", "header", "rows", "notes"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("marshaled table missing %q key: %s", key, data)
		}
	}
}

func TestTableJSONOmitsEmptyNotes(t *testing.T) {
	data, err := json.Marshal(&Table{ID: "E1", Header: []string{"h"}, Rows: [][]string{{"x"}}})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["notes"]; ok {
		t.Errorf("empty notes should be omitted: %s", data)
	}
}

func TestReportJSONShape(t *testing.T) {
	rep := NewReport()
	rep.Tables = []*Table{{ID: "E1", Header: []string{"h"}, Rows: [][]string{{"1"}}}}
	rep.Metrics = map[string]interface{}{"sim.events": int64(12)}
	var b []byte
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["seed"]; ok {
		t.Errorf("report carries a seed no experiment reads: %v", raw["seed"])
	}
	if raw["go_version"] == "" || raw["go_version"] == nil {
		t.Error("go_version missing")
	}
	if _, ok := raw["tables"].([]interface{}); !ok {
		t.Errorf("tables not an array: %v", raw["tables"])
	}
	if m, ok := raw["metrics"].(map[string]interface{}); !ok || m["sim.events"] != float64(12) {
		t.Errorf("metrics block wrong: %v", raw["metrics"])
	}
}
