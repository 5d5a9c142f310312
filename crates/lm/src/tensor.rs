//! Minimal reverse-mode autograd over dense `f32` matrices.
//!
//! A micrograd-style tape: every [`Tensor`] wraps a value matrix, a
//! gradient matrix and a backward closure referencing its parents.
//! [`Tensor::backward`] topologically sorts the graph and runs the
//! closures. The op set is exactly what a pre-LN transformer needs:
//! matmul (plain and transposed-RHS), broadcast bias add, element add,
//! scalar scale, GELU, row softmax (with optional causal mask), row
//! LayerNorm, embedding gather, row selection and masked cross-entropy.
//!
//! Matrices are small (sequence × d_model at mini-BERT scale), so clarity
//! beats blocking tricks here; the hot kernels still run over flat slices.

use kcb_ml::linalg::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Backward closure: distributes a node's gradient into its parents.
type BackwardFn = Box<dyn Fn(&Inner) + Send + Sync>;

/// Node payload. The locks make models `Send + Sync` and never block in
/// practice: one thread drives a graph at a time, and threads sharing a
/// pre-trained model only read its parameters. `RwLock`, not `Mutex`:
/// several `data()` borrows of one tensor may be live at once (e.g.
/// `x.matmul(&x)`), which a `Mutex` would deadlock on.
struct Inner {
    id: usize,
    data: RwLock<Matrix>,
    grad: RwLock<Matrix>,
    parents: Vec<Tensor>,
    /// Distributes `self.grad` into the parents' grads.
    backward: Option<BackwardFn>,
}

/// Process-wide node ids. One counter for every thread: a model built on
/// one thread and trained on another must never reuse an id, or
/// [`Tensor::backward`]'s visited set would skip parents.
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

fn next_id() -> usize {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn read(lock: &RwLock<Matrix>) -> RwLockReadGuard<'_, Matrix> {
    lock.read().expect("tensor lock poisoned by a panic mid-update")
}

fn write(lock: &RwLock<Matrix>) -> RwLockWriteGuard<'_, Matrix> {
    lock.write().expect("tensor lock poisoned by a panic mid-update")
}

/// A reference-counted autograd tensor (`Send + Sync`).
#[derive(Clone)]
pub struct Tensor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = read(&self.inner.data);
        write!(f, "Tensor(id={}, {}x{})", self.inner.id, d.rows(), d.cols())
    }
}

impl Tensor {
    /// Creates a leaf tensor (parameter or input).
    pub fn leaf(data: Matrix) -> Self {
        let grad = Matrix::zeros(data.rows(), data.cols());
        Self {
            inner: Arc::new(Inner {
                id: next_id(),
                data: RwLock::new(data),
                grad: RwLock::new(grad),
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    fn from_op(data: Matrix, parents: Vec<Tensor>, backward: BackwardFn) -> Self {
        let grad = Matrix::zeros(data.rows(), data.cols());
        Self {
            inner: Arc::new(Inner {
                id: next_id(),
                data: RwLock::new(data),
                grad: RwLock::new(grad),
                parents,
                backward: Some(backward),
            }),
        }
    }

    /// Borrows the value.
    pub fn data(&self) -> RwLockReadGuard<'_, Matrix> {
        read(&self.inner.data)
    }

    /// Borrows the gradient.
    pub fn grad(&self) -> RwLockReadGuard<'_, Matrix> {
        read(&self.inner.grad)
    }

    /// Overwrites the value in place (used by the optimiser and to reuse
    /// parameter tensors across steps).
    pub fn set_data(&self, data: Matrix) {
        *write(&self.inner.data) = data;
    }

    /// Applies `f` to the value matrix in place.
    pub fn update_data(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut write(&self.inner.data));
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&self) {
        let mut g = write(&self.inner.grad);
        let (r, c) = (g.rows(), g.cols());
        *g = Matrix::zeros(r, c);
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        let d = read(&self.inner.data);
        (d.rows(), d.cols())
    }

    fn accum_grad(&self, delta: &Matrix) {
        let mut g = write(&self.inner.grad);
        debug_assert_eq!((g.rows(), g.cols()), (delta.rows(), delta.cols()));
        for r in 0..g.rows() {
            kcb_ml::linalg::axpy(1.0, delta.row(r), g.row_mut(r));
        }
    }

    /// Adds into a single gradient row — the sparse path used by
    /// [`Tensor::gather`]'s backward, which would otherwise materialise a
    /// full table-shaped zero matrix per step (the embedding table is by
    /// far the largest parameter).
    fn accum_grad_row(&self, row: usize, delta: &[f32]) {
        let mut g = write(&self.inner.grad);
        kcb_ml::linalg::axpy(1.0, delta, g.row_mut(row));
    }

    /// Adds a `(rows, cols)` block of gradient at `(first_row, first_col)` —
    /// used by the multi-head attention backward, where each head owns a
    /// column slice of the fused Q/K/V projections.
    fn accum_grad_block(&self, first_row: usize, first_col: usize, delta: &Matrix) {
        let mut g = write(&self.inner.grad);
        let w = delta.cols();
        for r in 0..delta.rows() {
            let gr = &mut g.row_mut(first_row + r)[first_col..first_col + w];
            kcb_ml::linalg::axpy(1.0, delta.row(r), gr);
        }
    }

    /// Runs reverse-mode differentiation from this (scalar-ish) tensor,
    /// seeding its gradient with ones.
    pub fn backward(&self) {
        // Seed.
        {
            let mut g = write(&self.inner.grad);
            let (r, c) = (g.rows(), g.cols());
            let seed = Matrix::from_vec(vec![1.0; r * c], r, c);
            *g = seed;
        }
        // Topological order via iterative DFS.
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((t, processed)) = stack.pop() {
            if processed {
                order.push(t);
                continue;
            }
            if !visited.insert(t.inner.id) {
                continue;
            }
            stack.push((t.clone(), true));
            for p in &t.inner.parents {
                if !visited.contains(&p.inner.id) {
                    stack.push((p.clone(), false));
                }
            }
        }
        for t in order.into_iter().rev() {
            if let Some(bw) = &t.inner.backward {
                bw(&t.inner);
            }
        }
    }

    // --- ops ---------------------------------------------------------------

    /// Matrix product `self @ rhs`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let out = matmul_nn(&self.data(), &rhs.data());
        let a = self.clone();
        let b = rhs.clone();
        Tensor::from_op(
            out,
            vec![a.clone(), b.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                a.accum_grad(&matmul_nt(&g, &b.data()));
                b.accum_grad(&matmul_tn(&a.data(), &g));
            }),
        )
    }

    /// Matrix product with transposed RHS: `self @ rhsᵀ`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        let out = matmul_nt(&self.data(), &rhs.data());
        let a = self.clone();
        let b = rhs.clone();
        Tensor::from_op(
            out,
            vec![a.clone(), b.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                a.accum_grad(&matmul_nn(&g, &b.data()));
                b.accum_grad(&matmul_tn(&g, &a.data()));
            }),
        )
    }

    /// Element-wise sum (same shapes).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        let (a_d, b_d) = (self.data(), rhs.data());
        assert_eq!((a_d.rows(), a_d.cols()), (b_d.rows(), b_d.cols()), "add shape mismatch");
        let mut out = a_d.clone();
        for r in 0..out.rows() {
            kcb_ml::linalg::axpy(1.0, b_d.row(r), out.row_mut(r));
        }
        drop(a_d);
        drop(b_d);
        let a = self.clone();
        let b = rhs.clone();
        Tensor::from_op(
            out,
            vec![a.clone(), b.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                a.accum_grad(&g);
                b.accum_grad(&g);
            }),
        )
    }

    /// Adds a `(1, d)` bias row to every row.
    pub fn add_row(&self, bias: &Tensor) -> Tensor {
        let a_d = self.data();
        let b_d = bias.data();
        assert_eq!(b_d.rows(), 1, "bias must be a row vector");
        assert_eq!(a_d.cols(), b_d.cols(), "bias width mismatch");
        let mut out = a_d.clone();
        for r in 0..out.rows() {
            kcb_ml::linalg::axpy(1.0, b_d.row(0), out.row_mut(r));
        }
        drop(a_d);
        drop(b_d);
        let a = self.clone();
        let b = bias.clone();
        Tensor::from_op(
            out,
            vec![a.clone(), b.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                a.accum_grad(&g);
                // Column-sum into the bias grad.
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    kcb_ml::linalg::axpy(1.0, g.row(r), db.row_mut(0));
                }
                b.accum_grad(&db);
            }),
        )
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, k: f32) -> Tensor {
        let a_d = self.data();
        let out = Matrix::from_vec(a_d.as_slice().iter().map(|v| v * k).collect(), a_d.rows(), a_d.cols());
        drop(a_d);
        let a = self.clone();
        Tensor::from_op(
            out,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                let scaled =
                    Matrix::from_vec(g.as_slice().iter().map(|v| v * k).collect(), g.rows(), g.cols());
                a.accum_grad(&scaled);
            }),
        )
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&self) -> Tensor {
        let a_d = self.data();
        let (rows, cols) = (a_d.rows(), a_d.cols());
        // Cache tanh(inner) for the backward pass: gelu_grad needs the same
        // tanh the forward computed, and tanh dominates the activation cost.
        let mut tanhs = Vec::with_capacity(rows * cols);
        let out = Matrix::from_vec(
            a_d.as_slice()
                .iter()
                .map(|&x| {
                    let t = gelu_tanh(x);
                    tanhs.push(t);
                    0.5 * x * (1.0 + t)
                })
                .collect(),
            rows,
            cols,
        );
        drop(a_d);
        let a = self.clone();
        Tensor::from_op(
            out,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                let x = a.data();
                let mut d = Matrix::zeros(g.rows(), g.cols());
                for (i, (gv, xv)) in g.as_slice().iter().zip(x.as_slice()).enumerate() {
                    let r = i / g.cols();
                    let c = i % g.cols();
                    d.row_mut(r)[c] = gv * gelu_grad_cached(*xv, tanhs[i]);
                }
                drop(x);
                a.accum_grad(&d);
            }),
        )
    }

    /// Row-wise softmax. With `causal = true`, entry `(r, c)` for `c > r`
    /// is masked to zero probability (attention over a causal sequence —
    /// requires a square matrix).
    pub fn softmax_rows(&self, causal: bool) -> Tensor {
        let a_d = self.data();
        if causal {
            assert_eq!(a_d.rows(), a_d.cols(), "causal mask needs square scores");
        }
        let mut out = Matrix::zeros(a_d.rows(), a_d.cols());
        for r in 0..a_d.rows() {
            let row = a_d.row(r);
            let limit = if causal { r + 1 } else { row.len() };
            let max = row[..limit].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for c in 0..limit {
                let e = (row[c] - max).exp();
                out.row_mut(r)[c] = e;
                sum += e;
            }
            for c in 0..limit {
                out.row_mut(r)[c] /= sum;
            }
        }
        drop(a_d);
        let a = self.clone();
        let y = out.clone();
        Tensor::from_op(
            out,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                let mut d = Matrix::zeros(g.rows(), g.cols());
                for r in 0..g.rows() {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    for c in 0..g.cols() {
                        d.row_mut(r)[c] = yr[c] * (gr[c] - dot);
                    }
                }
                a.accum_grad(&d);
            }),
        )
    }

    /// Row-wise LayerNorm with per-column gain and bias (`(1, d)` each).
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor) -> Tensor {
        const EPS: f32 = 1e-5;
        let x = self.data();
        let g_d = gamma.data();
        let b_d = beta.data();
        let d = x.cols();
        assert_eq!(g_d.cols(), d);
        assert_eq!(b_d.cols(), d);
        let mut out = Matrix::zeros(x.rows(), d);
        let mut xhat = Matrix::zeros(x.rows(), d);
        let mut inv_std = vec![0.0f32; x.rows()];
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std[r] = istd;
            for c in 0..d {
                let xh = (row[c] - mean) * istd;
                xhat.row_mut(r)[c] = xh;
                out.row_mut(r)[c] = xh * g_d.row(0)[c] + b_d.row(0)[c];
            }
        }
        drop(x);
        drop(g_d);
        drop(b_d);
        let a = self.clone();
        let gm = gamma.clone();
        let bt = beta.clone();
        Tensor::from_op(
            out,
            vec![a.clone(), gm.clone(), bt.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                let gamma_d = gm.data();
                let n = g.cols() as f32;
                let mut dx = Matrix::zeros(g.rows(), g.cols());
                let mut dgamma = Matrix::zeros(1, g.cols());
                let mut dbeta = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    let gr = g.row(r);
                    let xh = xhat.row(r);
                    // dxhat = g * gamma
                    // dx = (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat)) * inv_std
                    let mut sum_dxh = 0.0f32;
                    let mut sum_dxh_xh = 0.0f32;
                    for c in 0..g.cols() {
                        let dxh = gr[c] * gamma_d.row(0)[c];
                        sum_dxh += dxh;
                        sum_dxh_xh += dxh * xh[c];
                        dgamma.row_mut(0)[c] += gr[c] * xh[c];
                        dbeta.row_mut(0)[c] += gr[c];
                    }
                    let m1 = sum_dxh / n;
                    let m2 = sum_dxh_xh / n;
                    for c in 0..g.cols() {
                        let dxh = gr[c] * gamma_d.row(0)[c];
                        dx.row_mut(r)[c] = (dxh - m1 - xh[c] * m2) * inv_std[r];
                    }
                }
                drop(gamma_d);
                a.accum_grad(&dx);
                gm.accum_grad(&dgamma);
                bt.accum_grad(&dbeta);
            }),
        )
    }

    /// Gathers embedding rows: `out[i] = self[ids[i]]`. `self` is the
    /// `(V, d)` table.
    pub fn gather(&self, ids: &[u32]) -> Tensor {
        let w = self.data();
        let mut out = Matrix::zeros(ids.len(), w.cols());
        for (i, &id) in ids.iter().enumerate() {
            out.row_mut(i).copy_from_slice(w.row(id as usize));
        }
        drop(w);
        let a = self.clone();
        let ids_owned: Vec<u32> = ids.to_vec();
        Tensor::from_op(
            out,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                // Sparse scatter: only the gathered rows receive gradient.
                for (i, &id) in ids_owned.iter().enumerate() {
                    a.accum_grad_row(id as usize, g.row(i));
                }
            }),
        )
    }

    /// Selects a subset of rows (e.g. the `[CLS]` position).
    pub fn select_rows(&self, rows: &[usize]) -> Tensor {
        let x = self.data();
        let mut out = Matrix::zeros(rows.len(), x.cols());
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(x.row(r));
        }
        drop(x);
        let a = self.clone();
        let rows_owned: Vec<usize> = rows.to_vec();
        Tensor::from_op(
            out,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                let (ar, ac) = a.shape();
                let mut da = Matrix::zeros(ar, ac);
                for (i, &r) in rows_owned.iter().enumerate() {
                    kcb_ml::linalg::axpy(1.0, g.row(i), da.row_mut(r));
                }
                a.accum_grad(&da);
            }),
        )
    }

    /// Masked mean cross-entropy between logit rows and target ids.
    /// Positions with `targets[i] == IGNORE` are excluded. Returns a
    /// `(1,1)` loss tensor and sets up the fused softmax+CE backward.
    pub fn cross_entropy(&self, targets: &[u32]) -> Tensor {
        /// Sentinel excluding a position from the loss.
        const IGNORE: u32 = u32::MAX;
        let logits = self.data();
        assert_eq!(logits.rows(), targets.len(), "logit/target row mismatch");
        let mut total = 0.0f64;
        let mut count = 0usize;
        let mut probs = Matrix::zeros(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            if targets[r] == IGNORE {
                continue;
            }
            let row = logits.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for c in 0..row.len() {
                let e = (row[c] - max).exp();
                probs.row_mut(r)[c] = e;
                sum += e;
            }
            for c in 0..row.len() {
                probs.row_mut(r)[c] /= sum;
            }
            let p = probs.row(r)[targets[r] as usize].max(1e-12);
            total -= (p as f64).ln();
            count += 1;
        }
        let count = count.max(1);
        let loss = Matrix::from_vec(vec![(total / count as f64) as f32], 1, 1);
        drop(logits);
        let a = self.clone();
        let targets_owned: Vec<u32> = targets.to_vec();
        Tensor::from_op(
            loss,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad).get(0, 0);
                let mut d = probs.clone();
                let inv = g / count as f32;
                for r in 0..d.rows() {
                    if targets_owned[r] == IGNORE {
                        d.row_mut(r).fill(0.0);
                        continue;
                    }
                    d.row_mut(r)[targets_owned[r] as usize] -= 1.0;
                    for v in d.row_mut(r) {
                        *v *= inv;
                    }
                }
                a.accum_grad(&d);
            }),
        )
    }

    /// Fused multi-head block-diagonal attention over a packed batch.
    ///
    /// `self` is the fused query matrix `(R, d)` with `d = n_heads · hd`;
    /// `k` / `v` share its shape, and head `h` owns the contiguous column
    /// slice `h·hd .. (h+1)·hd` of all three (i.e. the projections were
    /// computed with column-concatenated per-head weights).
    ///
    /// `segments` delimits the packed sequences as `[0, t₁, t₁+t₂, …, R]`;
    /// each sequence attends only within its own row range, so a batch of
    /// B sequences costs Σ tᵢ² instead of the (Σ tᵢ)² a dense score matrix
    /// would. Per (segment, head) the forward computes the classic
    /// `softmax(q @ kᵀ · scale) @ v` chain on that column slice in a fixed
    /// accumulation order, so results are bitwise identical across batch
    /// shapes, head counts, and thread counts (though not to the separate
    /// matmul/softmax op chain, whose kernels associate differently).
    /// Row-softmax probabilities are cached for the backward pass.
    pub fn attention(
        &self,
        k: &Tensor,
        v: &Tensor,
        segments: &[usize],
        n_heads: usize,
        causal: bool,
        scale: f32,
    ) -> Tensor {
        let q_d = self.data();
        let k_d = k.data();
        let v_d = v.data();
        let (rows, d) = (q_d.rows(), q_d.cols());
        assert_eq!((k_d.rows(), k_d.cols()), (rows, d), "attention k shape");
        assert_eq!((v_d.rows(), v_d.cols()), (rows, d), "attention v shape");
        assert!(n_heads >= 1 && d % n_heads == 0, "n_heads must divide width");
        assert!(segments.len() >= 2 && segments[0] == 0, "bad segment offsets");
        assert_eq!(*segments.last().unwrap(), rows, "segments must cover all rows");
        let hd = d / n_heads;

        let mut out = Matrix::zeros(rows, d);
        let mut probs: Vec<Matrix> = Vec::with_capacity((segments.len() - 1) * n_heads);
        for w in segments.windows(2) {
            let (s, e) = (w[0], w[1]);
            assert!(s < e, "empty attention segment");
            let t = e - s;
            for h in 0..n_heads {
                let (cs, ce) = (h * hd, (h + 1) * hd);
                let mut p = Matrix::zeros(t, t);
                for i in 0..t {
                    let qi = &q_d.row(s + i)[cs..ce];
                    let limit = if causal { i + 1 } else { t };
                    let pr = p.row_mut(i);
                    let mut j = 0;
                    while j + 4 <= limit {
                        let d = kcb_ml::linalg::dot4(
                            qi,
                            &k_d.row(s + j)[cs..ce],
                            &k_d.row(s + j + 1)[cs..ce],
                            &k_d.row(s + j + 2)[cs..ce],
                            &k_d.row(s + j + 3)[cs..ce],
                        );
                        for (o, dv) in pr[j..j + 4].iter_mut().zip(d) {
                            *o = dv * scale;
                        }
                        j += 4;
                    }
                    for jj in j..limit {
                        pr[jj] = kcb_ml::linalg::dot(qi, &k_d.row(s + jj)[cs..ce]) * scale;
                    }
                    // In-place row softmax over the unmasked prefix.
                    let max = pr[..limit].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for x in &mut pr[..limit] {
                        *x = (*x - max).exp();
                        sum += *x;
                    }
                    for x in &mut pr[..limit] {
                        *x /= sum;
                    }
                }
                for i in 0..t {
                    let limit = if causal { i + 1 } else { t };
                    let or = &mut out.row_mut(s + i)[cs..ce];
                    let pr = p.row(i);
                    // Four attended rows per pass; per output element the
                    // additions stay in ascending-j order, so this matches
                    // one-axpy-per-row bit for bit.
                    let mut j = 0;
                    while j + 4 <= limit {
                        let (p0, p1, p2, p3) = (pr[j], pr[j + 1], pr[j + 2], pr[j + 3]);
                        let v0 = &v_d.row(s + j)[cs..ce];
                        let v1 = &v_d.row(s + j + 1)[cs..ce];
                        let v2 = &v_d.row(s + j + 2)[cs..ce];
                        let v3 = &v_d.row(s + j + 3)[cs..ce];
                        for c in 0..or.len() {
                            or[c] = (((or[c] + p0 * v0[c]) + p1 * v1[c]) + p2 * v2[c])
                                + p3 * v3[c];
                        }
                        j += 4;
                    }
                    for jj in j..limit {
                        if pr[jj] != 0.0 {
                            kcb_ml::linalg::axpy(pr[jj], &v_d.row(s + jj)[cs..ce], or);
                        }
                    }
                }
                probs.push(p);
            }
        }
        drop(q_d);
        drop(k_d);
        drop(v_d);
        let q = self.clone();
        let k = k.clone();
        let v = v.clone();
        let segments_owned: Vec<usize> = segments.to_vec();
        Tensor::from_op(
            out,
            vec![q.clone(), k.clone(), v.clone()],
            Box::new(move |me| {
                let g = read(&me.grad);
                let q_d = q.data();
                let k_d = k.data();
                let v_d = v.data();
                for (bi, w) in segments_owned.windows(2).enumerate() {
                    let (s, e) = (w[0], w[1]);
                    let t = e - s;
                    for h in 0..n_heads {
                        let (cs, ce) = (h * hd, (h + 1) * hd);
                        let p = &probs[bi * n_heads + h];
                        let mut dq = Matrix::zeros(t, hd);
                        let mut dk = Matrix::zeros(t, hd);
                        let mut dv = Matrix::zeros(t, hd);
                        let mut dp = vec![0.0f32; t];
                        for i in 0..t {
                            let gi = &g.row(s + i)[cs..ce];
                            let pr = p.row(i);
                            // Positions past `limit` hold structural zeros
                            // (the causal mask), not attended rows.
                            let limit = if causal { i + 1 } else { t };
                            // dV += Pᵀ @ G (row i scatters into every attended j).
                            for (j, &pv) in pr[..limit].iter().enumerate() {
                                if pv != 0.0 {
                                    kcb_ml::linalg::axpy(pv, gi, dv.row_mut(j));
                                }
                            }
                            // dP row, then the softmax Jacobian gives dS.
                            dp[limit..].fill(0.0);
                            let mut j = 0;
                            while j + 4 <= limit {
                                let d = kcb_ml::linalg::dot4(
                                    gi,
                                    &v_d.row(s + j)[cs..ce],
                                    &v_d.row(s + j + 1)[cs..ce],
                                    &v_d.row(s + j + 2)[cs..ce],
                                    &v_d.row(s + j + 3)[cs..ce],
                                );
                                dp[j..j + 4].copy_from_slice(&d);
                                j += 4;
                            }
                            for jj in j..limit {
                                dp[jj] = kcb_ml::linalg::dot(gi, &v_d.row(s + jj)[cs..ce]);
                            }
                            let row_dot: f32 =
                                pr[..limit].iter().zip(&dp).map(|(a, b)| a * b).sum();
                            // dQ_i accumulates over j ascending (4 at a time,
                            // association unchanged); dK_j is a scatter.
                            let dqi = dq.row_mut(i);
                            let qi = &q_d.row(s + i)[cs..ce];
                            let ds_at = |j: usize, pv: f32| pv * (dp[j] - row_dot) * scale;
                            let mut j = 0;
                            while j + 4 <= limit {
                                let (s0, s1, s2, s3) = (
                                    ds_at(j, pr[j]),
                                    ds_at(j + 1, pr[j + 1]),
                                    ds_at(j + 2, pr[j + 2]),
                                    ds_at(j + 3, pr[j + 3]),
                                );
                                let k0 = &k_d.row(s + j)[cs..ce];
                                let k1 = &k_d.row(s + j + 1)[cs..ce];
                                let k2 = &k_d.row(s + j + 2)[cs..ce];
                                let k3 = &k_d.row(s + j + 3)[cs..ce];
                                for c in 0..dqi.len() {
                                    dqi[c] = (((dqi[c] + s0 * k0[c]) + s1 * k1[c]) + s2 * k2[c])
                                        + s3 * k3[c];
                                }
                                for (jj, ds) in [(j, s0), (j + 1, s1), (j + 2, s2), (j + 3, s3)] {
                                    if ds != 0.0 {
                                        kcb_ml::linalg::axpy(ds, qi, dk.row_mut(jj));
                                    }
                                }
                                j += 4;
                            }
                            for jj in j..limit {
                                let ds = ds_at(jj, pr[jj]);
                                if ds != 0.0 {
                                    kcb_ml::linalg::axpy(ds, &k_d.row(s + jj)[cs..ce], dqi);
                                    kcb_ml::linalg::axpy(ds, qi, dk.row_mut(jj));
                                }
                            }
                        }
                        q.accum_grad_block(s, cs, &dq);
                        k.accum_grad_block(s, cs, &dk);
                        v.accum_grad_block(s, cs, &dv);
                    }
                }
            }),
        )
    }

    /// Per-row weighted cross-entropy: `Σ_r w_r · CE(logits_r, t_r)`.
    ///
    /// The batched training loops use this to preserve the unbatched
    /// per-sequence-mean loss semantics exactly: a packed batch of B
    /// sequences, where sequence i supervises nᵢ rows, passes
    /// `w = 1 / (nᵢ · B)` for each of its rows so the loss (and therefore
    /// every gradient) equals the mean of per-sequence mean losses.
    pub fn cross_entropy_weighted(&self, targets: &[u32], weights: &[f32]) -> Tensor {
        let logits = self.data();
        assert_eq!(logits.rows(), targets.len(), "logit/target row mismatch");
        assert_eq!(targets.len(), weights.len(), "target/weight mismatch");
        let mut total = 0.0f64;
        let mut probs = Matrix::zeros(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            let row = logits.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for c in 0..row.len() {
                let e = (row[c] - max).exp();
                probs.row_mut(r)[c] = e;
                sum += e;
            }
            for c in 0..row.len() {
                probs.row_mut(r)[c] /= sum;
            }
            let p = probs.row(r)[targets[r] as usize].max(1e-12);
            total -= f64::from(weights[r]) * (p as f64).ln();
        }
        let loss = Matrix::from_vec(vec![total as f32], 1, 1);
        drop(logits);
        let a = self.clone();
        let targets_owned: Vec<u32> = targets.to_vec();
        let weights_owned: Vec<f32> = weights.to_vec();
        Tensor::from_op(
            loss,
            vec![a.clone()],
            Box::new(move |me| {
                let g = read(&me.grad).get(0, 0);
                let mut d = probs.clone();
                for r in 0..d.rows() {
                    d.row_mut(r)[targets_owned[r] as usize] -= 1.0;
                    let wr = g * weights_owned[r];
                    for v in d.row_mut(r) {
                        *v *= wr;
                    }
                }
                a.accum_grad(&d);
            }),
        )
    }
}

/// Sentinel target id excluded from [`Tensor::cross_entropy`].
pub const IGNORE_TARGET: u32 = u32::MAX;

/// `tanh` of the GELU inner polynomial — shared by forward and backward so
/// the transcendental is evaluated once per element.
fn gelu_tanh(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    (C * (x + 0.044715 * x * x * x)).tanh()
}

fn gelu_grad_cached(x: f32, t: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Register-tile height (output rows) for the axpy-form kernels.
const MR: usize = 4;
/// Register-tile width (output cols): 8 f32 = two SSE lanes, small enough
/// that an `MR × NR` accumulator block stays in xmm registers.
const NR: usize = 8;

/// `a (m,k) @ b (k,n)`: row-parallel with an `MR × NR` register-tiled
/// inner kernel. Each output element still accumulates over k in ascending
/// order — identical association to the plain axpy loop — so tiling never
/// perturbs results; it just keeps the accumulators in registers instead
/// of re-streaming the output row once per k. Public so the criterion
/// benches can measure the kernel in isolation.
pub fn matmul_nn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dim");
    let (inner, cols) = (a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), cols);
    crate::pool::parallel_row_chunks(out.as_mut_slice(), cols, inner * cols, |first, chunk| {
        let rows = chunk.len() / cols;
        let mut r = 0;
        while r + MR <= rows {
            let ar: [&[f32]; MR] = std::array::from_fn(|i| a.row(first + r + i));
            let mut j = 0;
            while j + NR <= cols {
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..inner {
                    let bk: &[f32; NR] = b.row(k)[j..j + NR].try_into().expect("NR slice");
                    for (accr, arow) in acc.iter_mut().zip(&ar) {
                        kcb_util::simd::fma_tile8(accr, arow[k], bk);
                    }
                }
                for (i2, accr) in acc.iter().enumerate() {
                    chunk[(r + i2) * cols + j..][..NR].copy_from_slice(accr);
                }
                j += NR;
            }
            if j < cols {
                for (i2, arow) in ar.iter().enumerate() {
                    let or = &mut chunk[(r + i2) * cols + j..(r + i2) * cols + cols];
                    for (k, &av) in arow.iter().enumerate() {
                        kcb_ml::linalg::axpy(av, &b.row(k)[j..], or);
                    }
                }
            }
            r += MR;
        }
        for i2 in r..rows {
            let ar = a.row(first + i2);
            let or = &mut chunk[i2 * cols..(i2 + 1) * cols];
            for (k, &av) in ar.iter().enumerate() {
                kcb_ml::linalg::axpy(av, b.row(k), or);
            }
        }
    });
    out
}

/// `a (m,k) @ bᵀ` for `b (n,k)`: materialises `bᵀ` (b is always the small
/// weight/score operand, so the transpose is negligible next to the
/// product) and runs the register-tiled [`matmul_nn`] kernel on contiguous
/// rows. Accumulation is ascending in k per output element.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt inner dim");
    let (n, k) = (b.rows(), b.cols());
    let mut bt = Matrix::zeros(k, n);
    {
        let flat = bt.as_mut_slice();
        for r in 0..n {
            for (c, &v) in b.row(r).iter().enumerate() {
                flat[c * n + r] = v;
            }
        }
    }
    matmul_nn(a, &bt)
}

/// `aᵀ @ b` for `a (k,m)`, `b (k,n)`: row-parallel over the `m` output
/// rows with the same `MR × NR` register tiling as [`matmul_nn`] — per
/// tile step the MR "a" values are one contiguous run of a's row k.
/// Accumulation stays ascending in k for every output element.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn inner dim");
    let (inner, cols, a_cols) = (a.rows(), b.cols(), a.cols());
    let a_flat = a.as_slice();
    let mut out = Matrix::zeros(a.cols(), cols);
    crate::pool::parallel_row_chunks(out.as_mut_slice(), cols, inner * cols, |first, chunk| {
        let rows = chunk.len() / cols;
        let mut r = 0;
        while r + MR <= rows {
            let mut j = 0;
            while j + NR <= cols {
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..inner {
                    let avs: &[f32; MR] =
                        a_flat[k * a_cols + first + r..][..MR].try_into().expect("MR slice");
                    let bk: &[f32; NR] = b.row(k)[j..j + NR].try_into().expect("NR slice");
                    for (accr, &av) in acc.iter_mut().zip(avs) {
                        kcb_util::simd::fma_tile8(accr, av, bk);
                    }
                }
                for (i2, accr) in acc.iter().enumerate() {
                    chunk[(r + i2) * cols + j..][..NR].copy_from_slice(accr);
                }
                j += NR;
            }
            if j < cols {
                for i2 in 0..MR {
                    let i = first + r + i2;
                    let or = &mut chunk[(r + i2) * cols + j..(r + i2) * cols + cols];
                    for k in 0..inner {
                        kcb_ml::linalg::axpy(a_flat[k * a_cols + i], &b.row(k)[j..], or);
                    }
                }
            }
            r += MR;
        }
        for i2 in r..rows {
            let i = first + i2;
            let or = &mut chunk[i2 * cols..(i2 + 1) * cols];
            for k in 0..inner {
                kcb_ml::linalg::axpy(a_flat[k * a_cols + i], b.row(k), or);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = kcb_util::Rng::seed(seed);
        Matrix::from_vec((0..rows * cols).map(|_| rng.f32_range(-1.0, 1.0)).collect(), rows, cols)
    }

    /// Finite-difference check of d(sum of f(x)) / dx for one leaf.
    fn grad_check(x: Matrix, f: impl Fn(&Tensor) -> Tensor, tol: f32) {
        let leaf = Tensor::leaf(x.clone());
        let out = f(&leaf);
        // Reduce to scalar by chaining into a sum via cross-entropy-free
        // trick: scale-sum using matmul with ones.
        let (orows, ocols) = out.shape();
        let ones = Tensor::leaf(Matrix::from_vec(vec![1.0; ocols], ocols, 1));
        let row_sums = out.matmul(&ones); // (orows, 1)
        let ones2 = Tensor::leaf(Matrix::from_vec(vec![1.0; orows], 1, orows));
        let total = ones2.matmul(&row_sums); // (1,1)
        total.backward();
        let analytic = leaf.grad().clone();

        let eps = 1e-2f32;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.row_mut(r)[c] += eps;
                let mut xm = x.clone();
                xm.row_mut(r)[c] -= eps;
                let fp: f32 = f(&Tensor::leaf(xp)).data().as_slice().iter().sum();
                let fm: f32 = f(&Tensor::leaf(xm)).data().as_slice().iter().sum();
                let num = (fp - fm) / (2.0 * eps);
                let ana = analytic.get(r, c);
                assert!(
                    (num - ana).abs() < tol + 0.05 * num.abs(),
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn matmul_values() {
        let a = Tensor::leaf(Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = Tensor::leaf(Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]));
        let c = a.matmul(&b);
        assert_eq!(c.data().row(0), &[19.0, 22.0]);
        assert_eq!(c.data().row(1), &[43.0, 50.0]);
        let d = a.matmul_t(&b);
        assert_eq!(d.data().row(0), &[17.0, 23.0]);
    }

    #[test]
    fn matmul_grads() {
        grad_check(mat(3, 4, 1), |x| x.matmul(&Tensor::leaf(mat(4, 2, 2))), 1e-2);
        grad_check(mat(3, 4, 3), |x| x.matmul_t(&Tensor::leaf(mat(5, 4, 4))), 1e-2);
    }

    #[test]
    fn add_and_bias_grads() {
        grad_check(mat(3, 4, 5), |x| x.add(&Tensor::leaf(mat(3, 4, 6))), 1e-2);
        grad_check(mat(3, 4, 7), |x| x.add_row(&Tensor::leaf(mat(1, 4, 8))), 1e-2);
        grad_check(mat(2, 3, 9), |x| x.scale(2.5), 1e-2);
    }

    #[test]
    fn gelu_grad_matches() {
        grad_check(mat(3, 3, 10), |x| x.gelu(), 2e-2);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_grad() {
        let t = Tensor::leaf(mat(4, 4, 11));
        let s = t.softmax_rows(false);
        for r in 0..4 {
            let sum: f32 = s.data().row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Softmax grad: check through a weighting matmul so the sum isn't
        // trivially constant.
        let w = mat(4, 4, 99);
        grad_check(mat(4, 4, 12), |x| {
            x.softmax_rows(false).matmul(&Tensor::leaf(w.clone()))
        }, 2e-2);
    }

    #[test]
    fn causal_softmax_masks_future() {
        let t = Tensor::leaf(mat(3, 3, 13));
        let s = t.softmax_rows(true);
        let d = s.data();
        assert_eq!(d.get(0, 1), 0.0);
        assert_eq!(d.get(0, 2), 0.0);
        assert_eq!(d.get(1, 2), 0.0);
        assert!((d.get(0, 0) - 1.0).abs() < 1e-6);
        let sum1: f32 = d.row(1).iter().sum();
        assert!((sum1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layer_norm_normalises_and_grad() {
        let gamma = Tensor::leaf(Matrix::from_vec(vec![1.0; 5], 1, 5));
        let beta = Tensor::leaf(Matrix::from_vec(vec![0.0; 5], 1, 5));
        let x = Tensor::leaf(mat(3, 5, 14));
        let y = x.layer_norm(&gamma, &beta);
        for r in 0..3 {
            let row = y.data().row(r).to_vec();
            let mean: f32 = row.iter().sum::<f32>() / 5.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 5.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
        let w = mat(5, 3, 98);
        grad_check(mat(3, 5, 15), |x| {
            let g = Tensor::leaf(Matrix::from_vec(vec![0.7, 1.3, 0.9, 1.1, 1.0], 1, 5));
            let b = Tensor::leaf(Matrix::from_vec(vec![0.1; 5], 1, 5));
            x.layer_norm(&g, &b).matmul(&Tensor::leaf(w.clone()))
        }, 3e-2);
    }

    #[test]
    fn gather_and_select_grads_scatter() {
        let table = Tensor::leaf(mat(6, 3, 16));
        let out = table.gather(&[2, 2, 5]);
        assert_eq!(out.data().row(0), out.data().row(1));
        let ones = Tensor::leaf(Matrix::from_vec(vec![1.0; 3], 3, 1));
        let s = out.matmul(&ones);
        let ones2 = Tensor::leaf(Matrix::from_vec(vec![1.0; 3], 1, 3));
        ones2.matmul(&s).backward();
        let g = table.grad();
        // Row 2 gathered twice → grad 2, row 5 once → grad 1, others 0.
        assert_eq!(g.row(2), &[2.0, 2.0, 2.0]);
        assert_eq!(g.row(5), &[1.0, 1.0, 1.0]);
        assert_eq!(g.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        // Two rows, uniform logits → loss = ln(3).
        let logits = Tensor::leaf(Matrix::zeros(2, 3));
        let loss = logits.cross_entropy(&[0, 2]);
        assert!((loss.data().get(0, 0) - 3.0f32.ln()).abs() < 1e-5);
        loss.backward();
        let g = logits.grad();
        // grad = (softmax - onehot)/2 → (1/3 - 1)/2 at targets.
        assert!((g.get(0, 0) - (1.0 / 3.0 - 1.0) / 2.0).abs() < 1e-5);
        assert!((g.get(0, 1) - (1.0 / 3.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_ignores_masked_positions() {
        let logits = Tensor::leaf(mat(3, 4, 17));
        let loss = logits.cross_entropy(&[1, IGNORE_TARGET, 3]);
        loss.backward();
        let g = logits.grad();
        assert!(g.row(1).iter().all(|&v| v == 0.0), "masked row must get no grad");
        assert!(g.row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn attention_single_segment_matches_op_chain() {
        // The fused op must reproduce softmax(q kᵀ · s) @ v for one
        // segment, causal and not. The two paths accumulate their dot
        // products in different (but each fixed) orders, so equality is up
        // to a few ULPs rather than bitwise.
        for causal in [false, true] {
            let q = Tensor::leaf(mat(5, 4, 20));
            let k = Tensor::leaf(mat(5, 4, 21));
            let v = Tensor::leaf(mat(5, 4, 22));
            let fused = q.attention(&k, &v, &[0, 5], 1, causal, 0.5);
            let chain = q.matmul_t(&k).scale(0.5).softmax_rows(causal).matmul(&v);
            for (a, b) in fused.data().as_slice().iter().zip(chain.data().as_slice()) {
                assert!((a - b).abs() < 1e-6, "causal={causal}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn attention_blocks_are_independent() {
        // A packed pair of sequences must equal the two single-sequence
        // results stacked: no cross-segment leakage.
        let q = Tensor::leaf(mat(7, 4, 23));
        let k = Tensor::leaf(mat(7, 4, 24));
        let v = Tensor::leaf(mat(7, 4, 25));
        let packed = q.attention(&k, &v, &[0, 3, 7], 1, false, 0.7);
        let take = |t: &Tensor, rows: std::ops::Range<usize>| {
            Tensor::leaf(Matrix::from_rows(rows.map(|r| t.data().row(r).to_vec())))
        };
        let first =
            take(&q, 0..3).attention(&take(&k, 0..3), &take(&v, 0..3), &[0, 3], 1, false, 0.7);
        let second =
            take(&q, 3..7).attention(&take(&k, 3..7), &take(&v, 3..7), &[0, 4], 1, false, 0.7);
        for r in 0..3 {
            assert_eq!(packed.data().row(r), first.data().row(r));
        }
        for r in 0..4 {
            assert_eq!(packed.data().row(3 + r), second.data().row(r));
        }
    }

    #[test]
    fn attention_multi_head_matches_per_head_slices() {
        // Fused two-head attention on a (R, 6) matrix must equal two
        // independent one-head calls on the (R, 3) column slices — forward
        // AND gradients, bitwise (same per-head arithmetic either way).
        let qm = mat(5, 6, 40);
        let km = mat(5, 6, 41);
        let vm = mat(5, 6, 42);
        let cols = |m: &Matrix, r: std::ops::Range<usize>| {
            Matrix::from_rows((0..m.rows()).map(|i| m.row(i)[r.clone()].to_vec()))
        };
        let q = Tensor::leaf(qm.clone());
        let k = Tensor::leaf(km.clone());
        let v = Tensor::leaf(vm.clone());
        let fused = q.attention(&k, &v, &[0, 2, 5], 2, false, 0.4);
        let ones = Tensor::leaf(Matrix::from_vec(vec![1.0; 6], 6, 1));
        let rows1 = Tensor::leaf(Matrix::from_vec(vec![1.0; 5], 1, 5));
        rows1.matmul(&fused.matmul(&ones)).backward();
        for h in 0..2 {
            let (cs, ce) = (h * 3, h * 3 + 3);
            let qh = Tensor::leaf(cols(&qm, cs..ce));
            let kh = Tensor::leaf(cols(&km, cs..ce));
            let vh = Tensor::leaf(cols(&vm, cs..ce));
            let single = qh.attention(&kh, &vh, &[0, 2, 5], 1, false, 0.4);
            for r in 0..5 {
                assert_eq!(&fused.data().row(r)[cs..ce], single.data().row(r), "head {h} row {r}");
            }
            let ones3 = Tensor::leaf(Matrix::from_vec(vec![1.0; 3], 3, 1));
            let rows1b = Tensor::leaf(Matrix::from_vec(vec![1.0; 5], 1, 5));
            rows1b.matmul(&single.matmul(&ones3)).backward();
            for (t, th) in [(&q, &qh), (&k, &kh), (&v, &vh)] {
                for r in 0..5 {
                    assert_eq!(
                        &t.grad().row(r)[cs..ce],
                        th.grad().row(r),
                        "head {h} grad row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn attention_grads_match_op_chain() {
        // Same graph two ways; all three inputs must receive identical
        // gradients (up to float noise from differing accumulation order).
        let qm = mat(6, 3, 26);
        let km = mat(6, 3, 27);
        let vm = mat(6, 3, 28);
        let run = |fused: bool| -> Vec<Matrix> {
            let q = Tensor::leaf(qm.clone());
            let k = Tensor::leaf(km.clone());
            let v = Tensor::leaf(vm.clone());
            let out = if fused {
                q.attention(&k, &v, &[0, 2, 6], 1, false, 0.6)
            } else {
                // Two separate single-segment chains stacked via select.
                let sel = |t: &Tensor, rows: &[usize]| t.select_rows(rows);
                let a = sel(&q, &[0, 1])
                    .matmul_t(&sel(&k, &[0, 1]))
                    .scale(0.6)
                    .softmax_rows(false)
                    .matmul(&sel(&v, &[0, 1]));
                let b = sel(&q, &[2, 3, 4, 5])
                    .matmul_t(&sel(&k, &[2, 3, 4, 5]))
                    .scale(0.6)
                    .softmax_rows(false)
                    .matmul(&sel(&v, &[2, 3, 4, 5]));
                // Reduce each to the same scalar sum as the fused path.
                let ones3 = Tensor::leaf(Matrix::from_vec(vec![1.0; 3], 3, 1));
                let oa = Tensor::leaf(Matrix::from_vec(vec![1.0; 2], 1, 2))
                    .matmul(&a.matmul(&ones3));
                let ob = Tensor::leaf(Matrix::from_vec(vec![1.0; 4], 1, 4))
                    .matmul(&b.matmul(&ones3));
                oa.add(&ob).backward();
                let grads = vec![q.grad().clone(), k.grad().clone(), v.grad().clone()];
                return grads;
            };
            let ones3 = Tensor::leaf(Matrix::from_vec(vec![1.0; 3], 3, 1));
            let ones6 = Tensor::leaf(Matrix::from_vec(vec![1.0; 6], 1, 6));
            ones6.matmul(&out.matmul(&ones3)).backward();
            let grads = vec![q.grad().clone(), k.grad().clone(), v.grad().clone()];
            grads
        };
        let fused = run(true);
        let chain = run(false);
        for (name, (f, c)) in ["q", "k", "v"].iter().zip(fused.iter().zip(&chain)) {
            for r in 0..6 {
                for col in 0..3 {
                    assert!(
                        (f.get(r, col) - c.get(r, col)).abs() < 1e-4,
                        "d{name} mismatch at ({r},{col}): {} vs {}",
                        f.get(r, col),
                        c.get(r, col)
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_ce_matches_uniform_mean() {
        // With w_r = 1/n the weighted loss and grads equal cross_entropy.
        let m = mat(4, 5, 29);
        let targets = [1u32, 0, 4, 2];
        let a = Tensor::leaf(m.clone());
        let la = a.cross_entropy(&targets);
        la.backward();
        let b = Tensor::leaf(m);
        let lb = b.cross_entropy_weighted(&targets, &[0.25; 4]);
        lb.backward();
        assert!((la.data().get(0, 0) - lb.data().get(0, 0)).abs() < 1e-6);
        for r in 0..4 {
            for c in 0..5 {
                assert!((a.grad().get(r, c) - b.grad().get(r, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn weighted_ce_respects_per_row_weights() {
        // Doubling one row's weight doubles its gradient contribution.
        let m = mat(2, 3, 30);
        let t = Tensor::leaf(m);
        let loss = t.cross_entropy_weighted(&[0, 2], &[0.2, 0.8]);
        loss.backward();
        let g = t.grad();
        // Row sums of |grad| scale with the weights.
        let s0: f32 = g.row(0).iter().map(|v| v.abs()).sum();
        let s1: f32 = g.row(1).iter().map(|v| v.abs()).sum();
        assert!(s1 > s0, "heavier row must dominate: {s0} vs {s1}");
    }

    #[test]
    fn shared_parameter_accumulates_from_both_uses() {
        // y = x @ w + x @ w — dw should be twice the single-use grad.
        let x = Tensor::leaf(mat(2, 3, 18));
        let w = Tensor::leaf(mat(3, 2, 19));
        let y = x.matmul(&w).add(&x.matmul(&w));
        let ones = Tensor::leaf(Matrix::from_vec(vec![1.0; 2], 2, 1));
        let ones2 = Tensor::leaf(Matrix::from_vec(vec![1.0; 2], 1, 2));
        ones2.matmul(&y.matmul(&ones)).backward();
        let g2 = w.grad().clone();
        let x2 = Tensor::leaf(x.data().clone());
        let w2 = Tensor::leaf(w.data().clone());
        let y2 = x2.matmul(&w2);
        let ones = Tensor::leaf(Matrix::from_vec(vec![1.0; 2], 2, 1));
        let ones2 = Tensor::leaf(Matrix::from_vec(vec![1.0; 2], 1, 2));
        ones2.matmul(&y2.matmul(&ones)).backward();
        let g1 = w2.grad();
        for r in 0..3 {
            for c in 0..2 {
                assert!((g2.get(r, c) - 2.0 * g1.get(r, c)).abs() < 1e-5);
            }
        }
    }

    fn step_params() -> Vec<Tensor> {
        vec![
            Tensor::leaf(mat(3, 5, 41)),
            Tensor::leaf(mat(1, 5, 42)),
            Tensor::leaf(Matrix::from_vec(vec![1.0; 5], 1, 5)),
            Tensor::leaf(Matrix::zeros(1, 5)),
            Tensor::leaf(mat(5, 2, 43)),
        ]
    }

    /// One forward + backward through matmul, bias, GELU, LayerNorm and
    /// cross-entropy; returns every parameter's gradient.
    fn step_grads(params: &[Tensor]) -> Vec<Matrix> {
        let x = Tensor::leaf(mat(4, 3, 40));
        let h = x.matmul(&params[0]).add_row(&params[1]).gelu();
        let h = h.layer_norm(&params[2], &params[3]);
        h.matmul(&params[4]).cross_entropy(&[0, 1, 1, 0]).backward();
        params.iter().map(|p| p.grad().clone()).collect()
    }

    #[test]
    fn parameters_built_on_one_thread_train_bit_identically_on_another() {
        let reference = step_grads(&step_params());
        let params = step_params();
        let grads = std::thread::scope(|s| {
            s.spawn(|| {
                // Unrelated tensors first: with per-thread id counters these
                // would reuse the parameters' ids and `backward` would skip
                // parents it had "already visited".
                let _unrelated: Vec<Tensor> =
                    (0..64).map(|i| Tensor::leaf(mat(1, 1, i))).collect();
                step_grads(&params)
            })
            .join()
            .expect("worker thread")
        });
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(grads.len(), reference.len());
        for (a, b) in reference.iter().zip(&grads) {
            assert_eq!(bits(a), bits(b));
        }
    }
}
