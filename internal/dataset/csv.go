package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSV writes the table to w as CSV with a header row. Continuous values
// are formatted with strconv.FormatFloat('g'); categorical values and the
// class use their string names. The class column is written last, named
// "class".
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(t.schema.Attrs)+1)
	for i := range t.schema.Attrs {
		header = append(header, t.schema.Attrs[i].Name)
	}
	header = append(header, "class")
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i := 0; i < t.NumTuples(); i++ {
		for a := range t.schema.Attrs {
			if t.schema.Attrs[a].Kind == Continuous {
				rec[a] = strconv.FormatFloat(t.cont[a][i], 'g', -1, 64)
			} else {
				rec[a] = t.schema.Attrs[a].Categories[t.cat[a][i]]
			}
		}
		rec[len(rec)-1] = t.schema.Classes[t.class[i]]
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVWriter writes tuples row by row in WriteCSV's format, for producers
// (like a streaming generator) that never hold a full table in memory.
type CSVWriter struct {
	cw     *csv.Writer
	schema *Schema
	rec    []string
}

// NewCSVWriter writes the header row for the schema and returns a writer
// ready for tuples.
func NewCSVWriter(w io.Writer, schema *Schema) (*CSVWriter, error) {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(schema.Attrs)+1)
	for i := range schema.Attrs {
		header = append(header, schema.Attrs[i].Name)
	}
	header = append(header, "class")
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	return &CSVWriter{cw: cw, schema: schema, rec: make([]string, len(header))}, nil
}

// Write appends one tuple row.
func (w *CSVWriter) Write(tu Tuple) error {
	for a := range w.schema.Attrs {
		if w.schema.Attrs[a].Kind == Continuous {
			w.rec[a] = strconv.FormatFloat(tu.Cont[a], 'g', -1, 64)
		} else {
			w.rec[a] = w.schema.Attrs[a].Categories[tu.Cat[a]]
		}
	}
	w.rec[len(w.rec)-1] = w.schema.Classes[tu.Class]
	return w.cw.Write(w.rec)
}

// Flush drains the buffered rows and reports any deferred write error.
// Call it once after the last Write.
func (w *CSVWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// WriteCSVFile writes the table to the named file.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSV reads a CSV training set produced by WriteCSV (or compatible) into
// a table conforming to the given schema. The header row must match the
// schema's attribute names followed by "class". Unknown category or class
// names and non-finite continuous values (NaN, ±Inf) are an error.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) != len(schema.Attrs)+1 {
		return nil, fmt.Errorf("dataset: CSV has %d columns, schema expects %d",
			len(header), len(schema.Attrs)+1)
	}
	for a := range schema.Attrs {
		if header[a] != schema.Attrs[a].Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q",
				a, header[a], schema.Attrs[a].Name)
		}
	}
	if header[len(header)-1] != "class" {
		return nil, fmt.Errorf("dataset: last CSV column is %q, expected \"class\"", header[len(header)-1])
	}

	// Pre-compute name->code maps for categorical columns and the class.
	catCodes := make([]map[string]int32, len(schema.Attrs))
	for a := range schema.Attrs {
		if schema.Attrs[a].Kind != Categorical {
			continue
		}
		m := make(map[string]int32, len(schema.Attrs[a].Categories))
		for c, name := range schema.Attrs[a].Categories {
			m[name] = int32(c)
		}
		catCodes[a] = m
	}
	classCodes := make(map[string]int32, len(schema.Classes))
	for c, name := range schema.Classes {
		classCodes[name] = int32(c)
	}

	tbl, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	tu := Tuple{Cont: make([]float64, len(schema.Attrs)), Cat: make([]int32, len(schema.Attrs))}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line+1, err)
		}
		line++
		for a := range schema.Attrs {
			if schema.Attrs[a].Kind == Continuous {
				v, err := strconv.ParseFloat(rec[a], 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d, attribute %q: %w",
						line, schema.Attrs[a].Name, err)
				}
				if !finite(v) {
					return nil, fmt.Errorf("dataset: line %d, attribute %q: non-finite value %q",
						line, schema.Attrs[a].Name, rec[a])
				}
				tu.Cont[a] = v
			} else {
				code, ok := catCodes[a][rec[a]]
				if !ok {
					return nil, fmt.Errorf("dataset: line %d, attribute %q: unknown category %q",
						line, schema.Attrs[a].Name, rec[a])
				}
				tu.Cat[a] = code
			}
		}
		cls, ok := classCodes[rec[len(rec)-1]]
		if !ok {
			return nil, fmt.Errorf("dataset: line %d: unknown class %q", line, rec[len(rec)-1])
		}
		tu.Class = cls
		tbl.AppendFast(tu)
	}
	return tbl, nil
}

// ReadCSVFile reads the named CSV file with ReadCSV.
func ReadCSVFile(path string, schema *Schema) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, schema)
}

// InferCSV reads a CSV file with header and infers a schema: columns whose
// every value parses as a float become continuous; all others categorical
// (categories in first-seen order). The last column is the class. A
// continuous column holding NaN or ±Inf is an error. The whole input is
// buffered in string form during inference.
func InferCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("dataset: CSV needs a header row and at least one data row")
	}
	header := rows[0]
	data := rows[1:]
	nattr := len(header) - 1
	if nattr < 1 {
		return nil, fmt.Errorf("dataset: CSV needs at least one attribute column plus a class column")
	}

	schema := &Schema{Attrs: make([]Attribute, nattr)}
	for a := 0; a < nattr; a++ {
		numeric := true
		for _, row := range data {
			if _, err := strconv.ParseFloat(row[a], 64); err != nil {
				numeric = false
				break
			}
		}
		attr := Attribute{Name: header[a]}
		if numeric {
			attr.Kind = Continuous
		} else {
			attr.Kind = Categorical
			seen := make(map[string]bool)
			for _, row := range data {
				if !seen[row[a]] {
					seen[row[a]] = true
					attr.Categories = append(attr.Categories, row[a])
				}
			}
		}
		schema.Attrs[a] = attr
	}
	seen := make(map[string]bool)
	for _, row := range data {
		v := row[len(row)-1]
		if !seen[v] {
			seen[v] = true
			schema.Classes = append(schema.Classes, v)
		}
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}

	tbl, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	catCodes := make([]map[string]int32, nattr)
	for a := 0; a < nattr; a++ {
		if schema.Attrs[a].Kind != Categorical {
			continue
		}
		m := make(map[string]int32)
		for c, name := range schema.Attrs[a].Categories {
			m[name] = int32(c)
		}
		catCodes[a] = m
	}
	classCodes := make(map[string]int32)
	for c, name := range schema.Classes {
		classCodes[name] = int32(c)
	}
	tu := Tuple{Cont: make([]float64, nattr), Cat: make([]int32, nattr)}
	for i, row := range data {
		for a := 0; a < nattr; a++ {
			if schema.Attrs[a].Kind == Continuous {
				v, _ := strconv.ParseFloat(row[a], 64)
				if !finite(v) {
					return nil, fmt.Errorf("dataset: line %d, attribute %q: non-finite value %q",
						i+2, header[a], row[a])
				}
				tu.Cont[a] = v
			} else {
				tu.Cat[a] = catCodes[a][row[a]]
			}
		}
		tu.Class = classCodes[row[len(row)-1]]
		tbl.AppendFast(tu)
	}
	return tbl, nil
}

// InferCSVFile reads the named file with InferCSV.
func InferCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return InferCSV(f)
}
