//! ASCII plotting for the figure binaries.
//!
//! The paper's figures are waveform plots (`Vc` versus time) and result
//! planes (`Vc` versus `R` on a log axis). These helpers render both as
//! fixed-width ASCII charts so every figure binary can print the same
//! series the paper shows.

/// An ASCII line chart of one or more series over a shared x axis.
#[derive(Debug, Clone)]
pub struct AsciiChart {
    title: String,
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
    log_x: bool,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl AsciiChart {
    /// Creates a chart with the given canvas size.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        AsciiChart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            width: 72,
            height: 20,
            log_x: false,
            series: Vec::new(),
        }
    }

    /// Uses a logarithmic x axis (for resistance sweeps).
    pub fn with_log_x(mut self) -> Self {
        self.log_x = true;
        self
    }

    /// Adds a named series of `(x, y)` points.
    pub fn add_series(&mut self, name: &str, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((name.to_string(), points));
        self
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        const MARKS: &[char] = &['*', 'o', '#', '+', 'x', '@', '%', '&'];
        let mut out = format!("{}\n", self.title);
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite() && (!self.log_x || *x > 0.0))
            .collect();
        if all.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let tx = |x: f64| if self.log_x { x.log10() } else { x };
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &all {
            x_min = x_min.min(tx(x));
            x_max = x_max.max(tx(x));
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        if (x_max - x_min).abs() < 1e-300 {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < 1e-12 {
            y_max = y_min + 1.0;
        }
        let mut canvas = vec![vec![' '; self.width]; self.height];
        for (si, (_, pts)) in self.series.iter().enumerate() {
            let mark = MARKS[si % MARKS.len()];
            for &(x, y) in pts {
                if !x.is_finite() || !y.is_finite() || (self.log_x && x <= 0.0) {
                    continue;
                }
                let cx =
                    ((tx(x) - x_min) / (x_max - x_min) * (self.width - 1) as f64).round() as usize;
                let cy =
                    ((y - y_min) / (y_max - y_min) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy.min(self.height - 1);
                canvas[row][cx.min(self.width - 1)] = mark;
            }
        }
        out.push_str(&format!("{:>10.3} |", y_max));
        out.push_str(&canvas[0].iter().collect::<String>());
        out.push('\n');
        for row in &canvas[1..self.height - 1] {
            out.push_str(&format!("{:>10} |", ""));
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str(&format!("{:>10.3} |", y_min));
        out.push_str(&canvas[self.height - 1].iter().collect::<String>());
        out.push('\n');
        out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(self.width)));
        let x_lo = if self.log_x {
            format!("{:.3e}", 10f64.powf(x_min))
        } else {
            format!("{x_min:.3e}")
        };
        let x_hi = if self.log_x {
            format!("{:.3e}", 10f64.powf(x_max))
        } else {
            format!("{x_max:.3e}")
        };
        out.push_str(&format!(
            "{:>12}{}: {} .. {}   ({})\n",
            "", self.x_label, x_lo, x_hi, self.y_label
        ));
        for (si, (name, _)) in self.series.iter().enumerate() {
            out.push_str(&format!("{:>12}{} {}\n", "", MARKS[si % MARKS.len()], name));
        }
        out
    }
}

/// Pairs two equal-length vectors into chart points.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn zip_points(xs: &[f64], ys: &[f64]) -> Vec<(f64, f64)> {
    assert_eq!(xs.len(), ys.len(), "series length mismatch");
    xs.iter().copied().zip(ys.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_series_and_legend() {
        let mut chart = AsciiChart::new("test chart", "t", "V");
        chart.add_series("rise", vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        chart.add_series("fall", vec![(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]);
        let text = chart.render();
        assert!(text.contains("test chart"));
        assert!(text.contains("* rise"));
        assert!(text.contains("o fall"));
        assert!(text.contains('*'));
    }

    #[test]
    fn log_axis_renders() {
        let mut chart = AsciiChart::new("log", "R", "V").with_log_x();
        chart.add_series("vsa", vec![(1e3, 1.2), (1e4, 1.0), (1e6, 0.1)]);
        let text = chart.render();
        assert!(text.contains("1.000e3"), "{text}");
    }

    #[test]
    fn empty_chart_safe() {
        let chart = AsciiChart::new("empty", "x", "y");
        assert!(chart.render().contains("(no data)"));
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let mut chart = AsciiChart::new("flat", "x", "y");
        chart.add_series("const", vec![(0.0, 1.0), (1.0, 1.0)]);
        let text = chart.render();
        assert!(text.contains('*'));
    }

    #[test]
    fn zip_points_pairs() {
        assert_eq!(
            zip_points(&[1.0, 2.0], &[3.0, 4.0]),
            vec![(1.0, 3.0), (2.0, 4.0)]
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_points_checks_length() {
        let _ = zip_points(&[1.0], &[1.0, 2.0]);
    }
}
