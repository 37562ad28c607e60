from fractions import Fraction

from liebalance.appendix import (AppendixReport, complexify_vector,
                                 in_skew_unitary, qmat_vec,
                                 quaternion_matrix_complexify, s_form_matrix,
                                 skew_unitary_project, verify_appendix_embeddings)
from liebalance.exact import GaussianRational, I, ONE, Quaternion, ZERO


def test_complex_structure_maps_to_block_diagonal():
    qi = Quaternion(I, 0)
    zero = Quaternion(0, 0)
    j_mat = [[qi, zero], [zero, qi]]
    rho = quaternion_matrix_complexify(j_mat)
    expect = [[ZERO] * 4 for _ in range(4)]
    expect[0][0] = I
    expect[1][1] = I
    expect[2][2] = -I
    expect[3][3] = -I
    assert rho == expect


def test_antidiagonal_example():
    # M = 0, M' = identity: rho(X) = [[0, -1], [1, 0]] in 2x2 blocks
    one = Quaternion(0, 1)  # j * identity entry
    zero = Quaternion(0, 0)
    x = [[one, zero], [zero, one]]
    rho = quaternion_matrix_complexify(x)
    for a in range(2):
        assert rho[a][2 + a] == -ONE
        assert rho[2 + a][a] == ONE


def test_zero_maps_to_zero():
    zero = Quaternion(0, 0)
    rho = quaternion_matrix_complexify([[zero, zero], [zero, zero]])
    assert all(x == ZERO for row in rho for x in row)


def test_rho_respects_action_on_random_vectors():
    x = skew_unitary_project([
        [Quaternion(GaussianRational(1, 2), GaussianRational(0, -1)),
         Quaternion(GaussianRational(Fraction(1, 2), 0), GaussianRational(3, 1))],
        [Quaternion(GaussianRational(-1, 1), GaussianRational(2, 0)),
         Quaternion(GaussianRational(0, 1), GaussianRational(1, 1))],
    ])
    assert in_skew_unitary(x)
    v = [Quaternion(GaussianRational(1, -1), GaussianRational(2, 0)),
         Quaternion(GaussianRational(0, 3), GaussianRational(-1, 1))]
    lhs = quaternion_matrix_complexify(x)
    from liebalance.linalg import mat_vec
    assert mat_vec(lhs, complexify_vector(v)) == complexify_vector(qmat_vec(x, v))


def test_s_form_shape():
    s = s_form_matrix(2)
    assert s[0][0] == I and s[1][1] == I
    assert s[2][2] == -I and s[3][3] == -I
    assert all(s[a][b] == ZERO for a in range(4) for b in range(4) if a != b)


def test_full_report_passes():
    rep = verify_appendix_embeddings(seed=0)
    assert isinstance(rep, AppendixReport)
    assert rep.ok, [c.name for c in rep.checks if not c.passed]
    names = {c.name for c in rep.checks}
    assert "rho_image_s_skew_m2" in names
    assert "complex_structure_image_m4" in names
    assert "q_part_projections_intertwine_brackets" in names
    assert "split_form_sl2r_invariant" in names
    assert [c.name for c in rep.checks] == [
        "s_split_shape_m2", "s_split_shape_m4",
        "projector_into_algebra_m2", "rho_action_compatible_m2",
        "rho_image_s_skew_m2", "rho_image_traceless_m2",
        "projector_into_algebra_m4", "rho_action_compatible_m4",
        "rho_image_s_skew_m4", "rho_image_traceless_m4",
        "complex_structure_image_m2", "complex_structure_image_m4",
        "q_part_in_algebra", "q_part_block_diagonal", "q_part_components_in_su11",
        "q_part_projection_1_injective", "q_part_projection_2_injective",
        "q_part_projections_intertwine_brackets", "split_form_sl2r_invariant",
    ]
