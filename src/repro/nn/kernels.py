"""The float-op sequences every execution path shares, written once.

Linear with its fused activation, the standalone activations, the Dropout
mask, softmax cross-entropy, the inference softmax, the im2col
convolution and max pooling each have exactly one implementation: a
forward (and backward) kernel here, and so do the SGD and Adam steps.
Three kinds of caller run the layer kernels:

- the define-by-run nodes (``F.fused_linear``, ``F.dropout``,
  ``F.cross_entropy``, ``F.softmax``, ``F.conv2d``, ``F.max_pool2d`` and
  the ``Tensor`` activations), with fresh buffers on every call;
- :class:`~repro.nn.stacked.ModelStack`, which runs those same nodes on
  tensors with a leading model axis;
- the plan kernels of :mod:`repro.nn.plan`, with buffers from their
  arena.

So the three paths agree bit for bit by construction, not by keeping
copies in step.  The step kernels are elementwise; ``SGD.step`` and
``Adam.step`` (:mod:`repro.nn.optim`) run them on every path.  Every
kernel writes into buffers its caller owns and allocates nothing; the
``@replay_kernel`` marker lets lint rule REP012 check that.  Every
kernel but the convolution's and the pool's, which models do not stack
through, accepts an optional leading model axis: a batched ``matmul``
computes each model slice with the gemm of the 2-D call, and the
elementwise ufuncs and last-axis reductions are slice-identical, so
slice ``m`` of a stacked run equals a 2-D run of model ``m``.

Each kernel replays the float operations of the general ``Tensor`` op
chain it stands for, in the same order and with the same operand order.
Where both operands of an op are NaN, which payload survives is up to
numpy's loop (vectorized, scalar tail, or in place), so only NaN
payloads may differ.  The reductions, gemms and einsums additionally
depend on the memory layout they sum over; :func:`empty_result`,
:func:`batch_fastest` and the ``*_buffers`` helpers give a fresh-buffer
caller the layout numpy would have returned, and a plan's arena keeps
the same layouts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "replay_kernel",
    "empty_result",
    "batch_fastest",
    "reshaped_view",
    "label_index",
    "activation_forward",
    "activation_backward",
    "linear_forward",
    "linear_backward",
    "dropout_forward",
    "dropout_backward",
    "cross_entropy_forward",
    "cross_entropy_backward",
    "softmax_forward",
    "select",
    "im2col_buffers",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "pool_windows",
    "max_pool2d_buffers",
    "max_pool2d_forward",
    "max_pool2d_backward",
    "sgd_step",
    "adam_step",
]


def replay_kernel(fn):
    """Mark ``fn`` as a kernel: it must only write into buffers it is given.

    The marker is what lint rule REP012 keys on — a ``Tensor`` or
    ``np.zeros``/``np.empty`` allocation inside a kernel would run on
    every replayed batch and defeat the plan engine's arena.
    """
    fn.__replay_kernel__ = True
    return fn


# -- buffers for fresh-buffer callers -----------------------------------------


def empty_result(*operands: np.ndarray) -> np.ndarray:
    """A fresh buffer laid out as an elementwise ufunc over ``operands``
    (all of one shape) lays out its result, so a reduction or gemm
    downstream rounds the same.

    C-contiguous operands give a C-ordered buffer; otherwise numpy's
    iterator picks the order, exactly as the ufunc would.
    """
    dtype = np.result_type(*operands)
    if all(operand.flags.c_contiguous for operand in operands):
        return np.empty(operands[0].shape, dtype=dtype)
    iterator = np.nditer(
        [*operands, None], flags=["zerosize_ok"],
        op_flags=[["readonly"]] * len(operands) + [["writeonly",
                                                    "allocate"]],
        op_dtypes=[operand.dtype for operand in operands] + [dtype],
        order="K")
    return iterator.operands[-1]


def batch_fastest(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A fresh ``(rows, …)`` buffer whose row axis is fastest in memory,
    the other axes in C order.

    It is how a fancy-index gather lays out the im2col columns and how
    ``np.einsum`` lays out a convolution's output, and both conv einsums
    sum in an order that follows those strides.
    """
    return np.moveaxis(np.empty(tuple(shape[1:]) + tuple(shape[:1]),
                                dtype=dtype), -1, 0)


def reshaped_view(array: np.ndarray, shape: tuple) -> np.ndarray:
    """``array`` in ``shape`` over the same memory, never a copy.

    Raises ``ValueError`` when ``array``'s strides cannot address that
    shape, where ``reshape`` would copy.  (``np.reshape(..., copy=False)``
    says the same from NumPy 2.1 on.)
    """
    view = array.view()
    try:
        view.shape = shape
    except AttributeError:
        raise ValueError(f"a {array.shape} array with strides "
                         f"{array.strides} has no {shape} view") from None
    return view


def label_index(shape: tuple) -> tuple:
    """Index arrays addressing every row of a ``(…, rows, classes)`` array;
    append a label array to address each row's label column."""
    return np.ix_(*(np.arange(count) for count in shape[:-1]))


# -- activations --------------------------------------------------------------


@replay_kernel
def activation_forward(name: str, x, out) -> None:
    """``out = name(x)`` for ``"relu"``, ``"tanh"`` or ``"sigmoid"``.

    ``out`` may be ``x`` itself.  ReLU's output is ``fmax(x + 0.0,
    0.0)``: adding 0.0 turns -0.0 into +0.0 and quiets signalling NaNs,
    then ``fmax`` maps NaNs and negatives to +0.0 — the bits of
    ``np.where(x > 0, x, 0.0)``.  So ``out > 0`` wherever ``x > 0`` and
    nowhere else, and the backward rebuilds the mask from ``out``: a
    training forward costs what an inference forward does.
    """
    if name == "relu":
        np.add(x, 0.0, out=out)
        np.fmax(out, 0.0, out=out)
    elif name == "tanh":
        np.tanh(x, out=out)
    elif name == "sigmoid":
        # 1.0 / (1.0 + exp(-clip(x, -60, 60))), one ufunc at a time.
        np.clip(x, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)
    else:
        raise ValueError(f"unsupported activation: {name!r}")


@replay_kernel
def activation_backward(name: str, g, out, mask, gx, scratch) -> None:
    """``gx = g * name'(…)`` from the forward's ``out``.

    ReLU writes ``out > 0``, which is ``x > 0`` for every input, into
    the boolean ``mask`` (C-ordered, the layout the gradients it
    multiplies arrive in) and multiplies by it; tanh and sigmoid take no
    mask but a ``scratch`` buffer that aliases neither ``g`` nor ``gx``.
    ``gx`` may be ``g`` itself.
    """
    if name == "relu":
        np.greater(out, 0.0, out=mask)
        np.multiply(g, mask, out=gx)
    elif name == "tanh":
        # g * (1.0 - out * out)
        np.multiply(out, out, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(g, scratch, out=gx)
    else:
        # g * out * (1.0 - out)
        np.subtract(1.0, out, out=scratch)
        np.multiply(g, out, out=gx)
        np.multiply(gx, scratch, out=gx)


# -- linear -------------------------------------------------------------------


@replay_kernel
def linear_forward(x, w, b, out) -> None:
    """``out = x @ w.T + b`` with ``(out, in)`` weights; ``b`` may be None."""
    np.matmul(x, np.swapaxes(w, -1, -2), out=out)
    if b is not None:
        np.add(out, b[..., None, :], out=out)


@replay_kernel
def linear_backward(x, w, g, gx, wt, gw, gb) -> None:
    """Gradients of :func:`linear_forward` for the output gradient ``g``.

    ``gx = g @ w`` (skipped when ``gx`` is None), ``gw = (x.T @ g).T``
    through the transposed buffer ``wt``, and ``gb`` sums ``g`` over the
    rows (skipped when None) — the gemms the ``matmul``/``transpose``
    nodes of ``x @ w.T + b`` issue.
    """
    if gx is not None:
        np.matmul(g, w, out=gx)
    np.matmul(np.swapaxes(x, -1, -2), g, out=wt)
    np.copyto(gw, np.swapaxes(wt, -1, -2))
    if gb is not None:
        np.add.reduce(g, axis=-2, out=gb)


# -- dropout ------------------------------------------------------------------


@replay_kernel
def dropout_forward(x, p: float, rng, draw, mask, out) -> None:
    """Inverted dropout: ``mask = (U >= p) / (1 - p)``, ``out = x * mask``.

    ``U`` is drawn into the float64 buffer ``draw`` from ``rng``, a
    ``Generator``; with a leading model axis ``rng`` is a sequence of
    generators and row ``m`` draws from ``rng[m]``, so each model's
    stream advances exactly as its own serial forward would.  ``draw``
    may be ``mask`` when ``mask`` is float64.
    """
    if isinstance(rng, np.random.Generator):
        rng.random(out=draw)
    else:
        for row, generator in enumerate(rng):
            generator.random(out=draw[row])
    np.greater_equal(draw, p, out=mask)
    np.divide(mask, 1.0 - p, out=mask)
    np.multiply(x, mask, out=out)


@replay_kernel
def dropout_backward(g, mask, gx) -> None:
    """``gx = g * mask``."""
    np.multiply(g, mask, out=gx)


# -- softmax cross-entropy ----------------------------------------------------


@replay_kernel
def cross_entropy_forward(x, labels, index, mask, shifted, expb, prod, norm,
                          lognorm, picked, loss) -> None:
    """``loss = -mean(log_softmax(x)[label])`` over the rows of
    ``(…, rows, classes)`` logits: a 0-d loss, or one per model.

    Replays ``nll_loss(log_softmax(x))``: ``mask`` becomes the one-hot
    labels (addressed through ``index`` from :func:`label_index`),
    ``shifted`` ends as the log-probabilities and ``prod`` as their
    masked product; ``mask``, ``expb`` and ``norm`` are what
    :func:`cross_entropy_backward` reads.
    """
    classes = x.shape[-1]
    if labels.shape != picked.shape:
        raise ValueError(
            f"labels must have shape {picked.shape}; got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(
            f"labels must lie in [0, {classes}); got range "
            f"[{labels.min()}, {labels.max()}]")
    mask.fill(0.0)
    mask[index + (labels,)] = 1.0
    # ``ufunc.reduce`` is what np.max/np.sum call, minus their wrapper.
    np.maximum.reduce(x, axis=-1, keepdims=True, out=lognorm)
    np.subtract(x, lognorm, out=shifted)
    np.exp(shifted, out=expb)
    np.add.reduce(expb, axis=-1, keepdims=True, out=norm)
    np.log(norm, out=lognorm)
    np.subtract(shifted, lognorm, out=shifted)
    np.multiply(shifted, mask, out=prod)
    np.add.reduce(prod, axis=-1, out=picked)
    np.add.reduce(picked, axis=-1, out=loss)
    np.multiply(loss, 1.0 / picked.shape[-1], out=loss)
    np.negative(loss, out=loss)


@replay_kernel
def cross_entropy_backward(coef, mask, expb, norm, gx, scratch,
                           gnorm) -> None:
    """Logit gradient of :func:`cross_entropy_forward`.

    ``coef`` is ``-g / rows`` for the upstream gradient ``g``, shaped to
    broadcast over ``(…, rows, classes)``.  ``scratch`` (shaped like the
    logits) and ``gnorm`` (``(…, rows, 1)``) are overwritten; the
    forward's ``prod`` and ``lognorm`` buffers can serve.
    """
    np.multiply(coef, mask, out=gx)
    np.negative(gx, out=scratch)
    np.add.reduce(scratch, axis=-1, keepdims=True, out=gnorm)
    np.divide(gnorm, norm, out=gnorm)
    np.multiply(gnorm, expb, out=scratch)
    np.add(gx, scratch, out=gx)


# -- inference softmax --------------------------------------------------------


@replay_kernel
def softmax_forward(x, axis: int, out, shifted, lognorm) -> None:
    """``out = exp(log_softmax(x))`` along ``axis``, the ufunc chain
    max → sub → exp → sum → log → sub → exp; ``lognorm`` has ``x``'s shape
    with ``axis`` reduced to 1."""
    np.maximum.reduce(x, axis=axis, keepdims=True, out=lognorm)
    np.subtract(x, lognorm, out=shifted)
    np.exp(shifted, out=out)
    np.add.reduce(out, axis=axis, keepdims=True, out=lognorm)
    np.log(lognorm, out=lognorm)
    np.subtract(shifted, lognorm, out=shifted)
    np.exp(shifted, out=out)


# -- select -------------------------------------------------------------------


@replay_kernel
def select(mask, a, b, out) -> None:
    """``out = np.where(mask, a, b)`` bit for bit, with no branch per cell.

    ``b`` may be None for +0.0.  The select runs on the operands' unsigned
    integer views as ``b ^ ((a ^ b) * mask)``: multiplying by the boolean
    ``mask`` keeps all of ``a ^ b`` or none of it, so each cell gets
    ``a``'s or ``b``'s exact bits — NaN payloads, signalling NaNs and
    signed zeros included — where ``np.where`` branches on every cell.
    ``a``, ``b`` and ``out`` share one float dtype, byte order included
    (raw bits move, values are never converted), and may have any memory
    layout; ``out`` may alias ``a`` but not ``b``.
    """
    if a.dtype != out.dtype or (b is not None and b.dtype != out.dtype):
        raise TypeError(
            f"select moves raw bits, so its operands need out's dtype "
            f"{out.dtype.str}; got {a.dtype.str} and "
            f"{'+0.0' if b is None else b.dtype.str}")
    bits = np.dtype(f"u{out.itemsize}")
    result = out.view(bits)
    if b is None:
        np.multiply(a.view(bits), mask, out=result)
        return
    b = b.view(bits)
    np.bitwise_xor(a.view(bits), b, out=result)
    np.multiply(result, mask, out=result)
    np.bitwise_xor(result, b, out=result)


# -- convolution --------------------------------------------------------------


def im2col_buffers(x_shape, kernel, padding, out_shape,
                   dtype=np.float64) -> tuple:
    """Fresh ``(padded, cols)`` for :func:`im2col` over ``x_shape`` input
    with an ``out_shape = (oh, ow)`` output: the padded scratch with its
    +0.0 border (None without padding) and the columns, both
    :func:`batch_fastest`."""
    rows, channels, height, width = x_shape
    padded = None
    if padding != (0, 0):
        padded = batch_fastest((rows, channels, height + 2 * padding[0],
                                width + 2 * padding[1]), dtype)
        padded.fill(0.0)
    cols = batch_fastest((rows, channels * kernel[0] * kernel[1],
                          out_shape[0] * out_shape[1]), dtype)
    return padded, cols


@replay_kernel
def im2col(x, kernel, stride, padding, padded, cols) -> None:
    """Gather the convolution windows of ``(rows, C, H, W)`` input ``x``.

    ``cols`` is ``(rows, C·kh·kw, oh·ow)`` in :func:`batch_fastest`
    layout: column ``(c·kh + i)·kw + j`` holds kernel offset ``(i, j)``
    of channel ``c`` at every output position, row-major.  With padding,
    ``padded`` is a :func:`batch_fastest` ``(rows, C, H + 2ph, W + 2pw)``
    scratch whose border holds +0.0; ``x`` is copied into its interior
    and the windows are read from it (None without padding).  Only
    copies: the values are ``x``'s, and the layout is ``cols``'.
    """
    kernel_h, kernel_w = kernel
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    if padded is not None:
        np.copyto(padded[:, :, pad_h:pad_h + x.shape[2],
                         pad_w:pad_w + x.shape[3]], x)
        x = padded
    out_h = (x.shape[2] - kernel_h) // stride_h + 1
    out_w = (x.shape[3] - kernel_w) // stride_w + 1
    # Row-last views: each kernel offset is one strided block copy.
    target = reshaped_view(np.moveaxis(cols, 0, -1),
                           (x.shape[1], kernel_h, kernel_w, out_h, out_w,
                            x.shape[0]))
    source = np.moveaxis(x, 0, -1)
    for i in range(kernel_h):
        for j in range(kernel_w):
            np.copyto(target[:, i, j],
                      source[:, i:i + stride_h * (out_h - 1) + 1:stride_h,
                             j:j + stride_w * (out_w - 1) + 1:stride_w])


@replay_kernel
def col2im(cols, index, padded) -> None:
    """Scatter-add im2col columns back onto ``(rows, C, Hp, Wp)`` ``padded``.

    ``padded`` is zeroed, then ``np.add.at`` adds every column into the
    position ``index = (k, i, j)`` gathered it from: per element, the
    windows' shares in offset order.  A vectorized add would keep a
    different NaN than ``np.add.at`` where two meet.
    """
    padded.fill(0.0)
    np.add.at(padded, (slice(None),) + tuple(index), cols)


@replay_kernel
def conv2d_forward(weight, bias, cols, out) -> None:
    """``out = einsum("of,bfp->bop", weight, cols) + bias`` per channel.

    ``weight`` is ``(O, C, kh, kw)``, ``cols`` from :func:`im2col` and
    ``out`` a :func:`batch_fastest` ``(rows, O, oh, ow)`` buffer, the
    layout the einsum returns; ``bias`` may be None.
    """
    out = reshaped_view(out, out.shape[:2] + (-1,))
    np.einsum("of,bfp->bop", weight.reshape(weight.shape[0], -1), cols,
              out=out)
    if bias is not None:
        np.add(out, bias[:, None], out=out)


@replay_kernel
def conv2d_backward(weight, g, cols, weight_cols, gw, gb, gcols) -> None:
    """Gradients of :func:`conv2d_forward` for the output gradient ``g``.

    ``gw = einsum("bop,bfp->of", g, cols)`` in ``weight``'s shape, through
    ``weight_cols``, an F-ordered ``(O, C·kh·kw)`` buffer: the layout the
    einsum returns, whose bits an ``out=`` of another layout does not
    keep.  ``gb`` sums ``g`` over rows and positions (skipped when None),
    and ``gcols = einsum("of,bop->bfp", weight, g)``, C-ordered, are the
    input gradient's columns for :func:`col2im` (skipped when None).
    """
    # A layout that cannot view as (rows, O, positions) is copied, as
    # the define-by-run node's reshape always did.
    g_cols = g.reshape(g.shape[0], g.shape[1], -1)
    np.einsum("bop,bfp->of", g_cols, cols, out=weight_cols)
    np.copyto(gw, weight_cols.reshape(gw.shape))
    if gcols is not None:
        np.einsum("of,bop->bfp", weight.reshape(weight.shape[0], -1),
                  g_cols, out=gcols)
    if gb is not None:
        np.add.reduce(g, axis=(0, 2, 3), out=gb)


# -- max pooling --------------------------------------------------------------


def pool_windows(x, kernel, stride, out_shape) -> list:
    """One strided view of ``(rows, C, H, W)`` ``x`` per kernel offset, in
    row-major offset order: view ``k`` holds element ``k`` of every
    ``(oh, ow)`` window."""
    kernel_h, kernel_w = kernel
    stride_h, stride_w = stride
    out_h, out_w = out_shape
    return [x[:, :, i:i + stride_h * (out_h - 1) + 1:stride_h,
              j:j + stride_w * (out_w - 1) + 1:stride_w]
            for i in range(kernel_h) for j in range(kernel_w)]


def max_pool2d_buffers(x, kernel, stride, out_shape) -> tuple:
    """Fresh ``(running, keep, scratch, taken, winner)`` for
    :func:`max_pool2d_forward` over ``x``: the running maximum in the
    memory order of ``x``'s windows (so its passes walk memory
    sequentially) and in ``x``'s dtype, byte order included; the masks
    and ``taken`` in its layout; ``winner`` C-ordered, like the gradients
    it routes, in the smallest unsigned type that holds an offset."""
    running = empty_result(
        pool_windows(x, kernel, stride, out_shape)[0]).view(x.dtype)
    keep = np.empty_like(running, dtype=bool)
    winner = np.empty(x.shape[:2] + tuple(out_shape),
                      dtype=np.min_scalar_type(kernel[0] * kernel[1] - 1))
    return (running, keep, np.empty_like(keep),
            np.empty_like(keep, dtype=winner.dtype), winner)


@replay_kernel
def max_pool2d_forward(x, kernel, stride, running, keep, scratch, taken,
                       winner, out) -> None:
    """Each window's first maximum into ``out``, its offset into ``winner``.

    A later offset wins only with a strictly larger value, or with a NaN
    while the running maximum is not NaN: ``argmax``'s first-maximum
    rule, so ties, signed zeros and NaN windows keep the earliest
    element's bits.  The running maximum lives in ``running`` (``x``'s
    dtype, byte order included, since :func:`select` moves bits), with
    the boolean ``keep`` and ``scratch`` and ``taken``, of ``winner``'s
    unsigned integer dtype, in its layout.  With one offset, only
    ``winner`` and ``out`` are written.
    """
    windows = pool_windows(x, kernel, stride, out.shape[2:])
    maximum = windows[0]
    winner.fill(0)
    for offset, candidate in enumerate(windows[1:], start=1):
        # The maximum stays where the candidate is not larger (``<=`` is
        # False when either side is NaN) or where it is NaN itself.
        np.less_equal(candidate, maximum, out=keep)
        np.not_equal(maximum, maximum, out=scratch)
        np.logical_or(keep, scratch, out=keep)
        select(keep, maximum, candidate, running)
        maximum = running
        # Offsets only grow, so a take makes this offset the winner.  (A
        # masked copyto of the offset runs about ten times slower.)
        np.logical_not(keep, out=scratch)
        np.multiply(scratch, winner.dtype.type(offset), out=taken)
        np.maximum(winner, taken, out=winner)
    np.copyto(out, maximum)


@replay_kernel
def max_pool2d_backward(g, winner, kernel, stride, hit, share, quiet,
                        gx) -> None:
    """Input gradient ``gx`` of :func:`max_pool2d_forward`.

    Offset ``k``'s share, ``g`` where ``winner == k`` and +0.0 elsewhere,
    is added into the zeroed ``gx`` through the same views, in offset
    order: per element the sum ``((0.0 + c0) + c1) + …`` the im2col
    scatter computed.  ``hit`` is a boolean and ``share`` a ``g``-typed
    buffer of ``g``'s shape.  Where windows overlap, two NaN shares can
    meet in one element: the scatter kept the later NaN, a vectorized add
    may keep either.  So for overlapping windows ``quiet`` receives
    ``g + 0.0`` (quieting NaNs as the sum does, changing no sum) and each
    NaN share is copied over; it is None where windows do not overlap.
    """
    gx.fill(0.0)
    if quiet is not None:
        np.add(g, 0.0, out=quiet)
        g = quiet
    for offset, view in enumerate(pool_windows(gx, kernel, stride,
                                               g.shape[2:])):
        np.equal(winner, offset, out=hit)
        select(hit, g, None, share)
        np.add(view, share, out=view)
        if quiet is not None:
            np.isnan(share, out=hit)
            np.copyto(view, share, where=hit)


# -- optimizer steps ----------------------------------------------------------


@replay_kernel
def sgd_step(param, grad, velocity, scratch, lr: float, momentum: float,
             weight_decay: float) -> None:
    """One SGD step on ``param`` in place.

    Replays ``g = grad + weight_decay * param`` (without weight decay,
    ``g = grad``), then with momentum ``velocity = momentum * velocity + g``
    and ``g = velocity``, then ``param = param - lr * g``.  ``velocity``
    is None without momentum.  ``grad`` and ``scratch`` are overwritten;
    every buffer has ``param``'s shape.
    """
    if weight_decay:
        np.multiply(param, weight_decay, out=scratch)
        np.add(grad, scratch, out=grad)
    if momentum:
        np.multiply(velocity, momentum, out=velocity)
        np.add(velocity, grad, out=velocity)
        grad = velocity
    np.multiply(grad, lr, out=scratch)
    np.subtract(param, scratch, out=param)


@replay_kernel
def adam_step(param, grad, m, v, scratch_a, scratch_b, lr: float,
              beta1: float, beta2: float, eps: float, weight_decay: float,
              step: int) -> None:
    """Adam's ``step``-th update of ``param`` and its moments in place.

    Replays ``g = grad + weight_decay * param`` (without weight decay,
    ``g = grad``), ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * g * g`` and
    ``param = param - lr * m_hat / (sqrt(v_hat) + eps)`` with the
    bias-corrected ``m_hat = m / (1 - beta1 ** step)`` and
    ``v_hat = v / (1 - beta2 ** step)``.  ``grad`` and both scratch
    buffers are overwritten; every buffer has ``param``'s shape.
    """
    if weight_decay:
        np.multiply(param, weight_decay, out=scratch_a)
        np.add(grad, scratch_a, out=grad)
    np.multiply(m, beta1, out=m)
    np.multiply(grad, 1.0 - beta1, out=scratch_a)
    np.add(m, scratch_a, out=m)
    np.multiply(v, beta2, out=v)
    np.multiply(grad, 1.0 - beta2, out=scratch_a)
    np.multiply(scratch_a, grad, out=scratch_a)
    np.add(v, scratch_a, out=v)
    np.divide(m, 1.0 - beta1 ** step, out=scratch_a)
    np.divide(v, 1.0 - beta2 ** step, out=scratch_b)
    np.sqrt(scratch_b, out=scratch_b)
    np.add(scratch_b, eps, out=scratch_b)
    np.multiply(scratch_a, lr, out=scratch_a)
    np.divide(scratch_a, scratch_b, out=scratch_a)
    np.subtract(param, scratch_a, out=param)
