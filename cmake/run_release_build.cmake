# Tier-2 Release-build gate (driven by the `release_build` ctest).
#
# Configures a nested build of this source tree with
# CMAKE_BUILD_TYPE=Release (-O3) and builds every target. Warnings stay
# errors (MHS_WERROR defaults to ON), so the test fails on any warning
# that only the optimizer raises, such as GCC's -Wrestrict false
# positives on inlined std::string concatenation.
#
# Inputs (via -D):
#   SOURCE_DIR - repository root
#   WORK_DIR   - scratch directory for the nested build
if(NOT SOURCE_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
      "run_release_build.cmake needs -DSOURCE_DIR and -DWORK_DIR")
endif()

set(build_dir "${WORK_DIR}/build")
file(MAKE_DIRECTORY "${build_dir}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -S "${SOURCE_DIR}" -B "${build_dir}"
          -DCMAKE_BUILD_TYPE=Release
  RESULT_VARIABLE config_rc)
if(NOT config_rc EQUAL 0)
  message(FATAL_ERROR "Release configure failed with ${config_rc}")
endif()

cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
execute_process(
  COMMAND ${CMAKE_COMMAND} --build "${build_dir}" --parallel ${jobs}
  RESULT_VARIABLE build_rc)
if(NOT build_rc EQUAL 0)
  message(FATAL_ERROR "Release build failed with ${build_rc}")
endif()

message(STATUS "release_build: every target builds warning-free at -O3")
