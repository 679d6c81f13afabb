//! Minimal aligned-table rendering for the experiment registry.

/// Renders a markdown-style table with aligned columns, one `\n` per
/// line.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s.push('\n');
        s
    };
    let mut out = String::new();
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers_owned));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep));
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn format_table_does_not_panic_on_ragged_rows() {
        let out = super::format_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(out.lines().count(), 4);
    }
}
