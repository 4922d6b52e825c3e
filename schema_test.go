package tailbench

import (
	"bytes"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateSchema = flag.Bool("update-schema", false,
	"rewrite testdata/schema/*.json from the current result types (a deliberate schema change)")

// fillDistinct sets every settable field under v, recursively, to a non-zero
// value drawn from a running counter, so no two scalar fields of a document
// share a value and a swapped or dropped field shows up in the bytes. Slices
// get one element and pointers one pointee. Integer types that marshal as
// text (Mode, the trace span kind) get 1, which both enumerations name.
func fillDistinct(v reflect.Value, next *int64) {
	*next++
	n := *next
	if v.CanAddr() {
		if _, ok := v.Addr().Interface().(encoding.TextUnmarshaler); ok {
			if v.CanInt() {
				v.SetInt(1)
			} else {
				v.SetUint(1)
			}
			return
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(v.Index(0), next)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	default:
		panic(fmt.Sprintf("fillDistinct: unhandled kind %s; teach the filler about it", v.Kind()))
	}
}

// TestResultSchemaFixtures pins the JSON schema of the three public result
// documents byte for byte: key order, omitempty, and null versus [] for the
// zero value, and every field (live-only ones included: Errors, Transport,
// NetworkDelay, ThreadsPer, RetiredAt — which no simulated golden hash
// populates) for the filled value. The fixtures were generated at commit
// 23c8fc3, before the result blocks became aliases of the engines' types;
// saved result files in the wild have that shape, so a diff here is a
// breaking schema change, not a refactoring detail. Each fixture must also
// survive unmarshal and re-marshal unchanged, which is what `tailbench
// report -input` relies on.
func TestResultSchemaFixtures(t *testing.T) {
	docs := []struct {
		name string
		new  func() any
	}{
		{"result", func() any { return new(Result) }},
		{"cluster", func() any { return new(ClusterResult) }},
		{"pipeline", func() any { return new(PipelineResult) }},
	}
	encode := func(v any) []byte {
		t.Helper()
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return append(b, '\n')
	}
	for _, doc := range docs {
		for _, variant := range []string{"zero", "full"} {
			t.Run(doc.name+"."+variant, func(t *testing.T) {
				v := doc.new()
				if variant == "full" {
					var n int64
					fillDistinct(reflect.ValueOf(v).Elem(), &n)
				}
				got := encode(v)
				path := filepath.Join("testdata", "schema", doc.name+"."+variant+".json")
				if *updateSchema {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: marshalled document differs from the fixture\n got: %s\nwant: %s", path, got, want)
				}
				back := doc.new()
				if err := json.Unmarshal(want, back); err != nil {
					t.Fatalf("%s: unmarshal: %v", path, err)
				}
				if again := encode(back); !bytes.Equal(again, want) {
					t.Errorf("%s: fixture does not survive a round trip\n got: %s\nwant: %s", path, again, want)
				}
			})
		}
	}
}
