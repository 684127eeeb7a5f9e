package shard

import (
	"reflect"
	"testing"
)

// TestStatsAddSumsEveryField fills every field of two Stats with distinct
// values by reflection and checks that Add sums each one, so a counter
// added to Stats later cannot drop out of the service's totals.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is a %s; extend this test and Add", va.Type().Field(i).Name, va.Field(i).Kind())
		}
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: Stats.%s = %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}
}
